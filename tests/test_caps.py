"""Resource caps as a contract: every input a cap admits finishes within a
fixed budget, and the first input past it is refused (exit 3) before any
work starts.

This file covers ``GENERIC_CAP``, which admits ``construct interval`` for
n+d <= GENERIC_CAP. The edges come from that definition: every split of
n+d == GENERIC_CAP that ``interval_space`` accepts (n >= 2), and every
split of n+d == GENERIC_CAP + 1.
"""

import json
import subprocess
import sys

import pytest

import limprof.builders as builders
from limprof.builders import GENERIC_CAP, generic_vectors
from limprof.errors import TooLargeError

BUDGET_S = 20.0


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "limprof.cli", *args],
        capture_output=True,
        text=True,
        timeout=BUDGET_S,
    )


@pytest.mark.parametrize("n", range(2, GENERIC_CAP + 1))
def test_interval_at_generic_cap_finishes_and_verifies(n, tmp_path):
    d = GENERIC_CAP - n
    out = tmp_path / "m.json"
    p = run_cli("construct", "interval", "--n", str(n), "--d", str(d),
                "--out", str(out))
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["counts"] == list(range(n, n + d + 1))
    v = run_cli("verify", str(tmp_path / "m.cert.json"))
    assert v.returncode == 0, v.stderr
    assert json.loads(v.stdout)["verified"] is True


@pytest.mark.parametrize("n", range(2, GENERIC_CAP + 2))
def test_interval_past_generic_cap_exits_3(n, tmp_path):
    out = tmp_path / "m.json"
    p = run_cli("construct", "interval", "--n", str(n),
                "--d", str(GENERIC_CAP + 1 - n), "--out", str(out))
    assert p.returncode == 3
    assert json.loads(p.stderr)["error"] == "too-large"
    assert not out.exists() and p.stdout == ""


@pytest.mark.parametrize("n", range(1, GENERIC_CAP + 2))
def test_generic_cap_is_checked_before_the_grid_walk(n, monkeypatch):
    def no_walk(dim):
        raise AssertionError("grid walk started past the cap")

    monkeypatch.setattr(builders, "integer_tuples", no_walk)
    with pytest.raises(TooLargeError):
        generic_vectors(n, GENERIC_CAP + 1 - n)
