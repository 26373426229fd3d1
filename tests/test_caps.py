"""Resource caps as a contract: every input a cap admits finishes within a
fixed budget, and the first input past it is refused (exit 3) before any
work starts.

The edges come from each cap's definition:

- ``GENERIC_CAP`` admits ``construct interval`` for n+d <= GENERIC_CAP:
  every split of n+d == GENERIC_CAP that ``interval_space`` accepts
  (n >= 2), and every split of n+d == GENERIC_CAP + 1.
- ``PROFILE_CAP`` admits ``profile`` on PROFILE_CAP columns and any row
  count: a PROFILE_CAP-column matrix with entries in [-50, 50] at the row
  count where the walk is slowest (``PROFILE_EDGE_ROWS``, measured over 2..12
  rows), and a matrix with one more column.
- ``ODD_CAP`` admits ``construct odd --k`` up to ODD_CAP: k == ODD_CAP and
  k == ODD_CAP + 1.
"""

import json
import random
import subprocess
import sys

import pytest

import limprof.builders as builders
import limprof.engine as engine
from limprof.builders import GENERIC_CAP, ODD_CAP, generic_vectors, odd_space
from limprof.engine import PROFILE_CAP, matrix_to_json, multiplicity, profile
from limprof.errors import TooLargeError
from limprof.kernel import RatMatrix, vec

BUDGET_S = 20.0

# At 12 columns with entries in [-50, 50], one profile took (Python 3.11,
# 2 CPUs, median of three seeded matrices): 0.2 s at 4 rows, 0.8 s at 5,
# 2.3 s at 6, 3.6 s at 7, 2.4 s at 8, 0.6 s at 9 and under 0.1 s at 2, 3
# and from 10 rows on. Entries in {0, 1} or {-1, 0, 1} took at most 1.2 s.
PROFILE_EDGE_ROWS = 7


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


def wide_matrix(rows, cols):
    """Seeded matrix with pairwise distinct columns, entries in [-50, 50]."""
    rng = random.Random(f"profile-cap/{rows}x{cols}")
    columns = []
    while len(columns) < cols:
        c = [rng.randint(-50, 50) for _ in range(rows)]
        if c not in columns:
            columns.append(c)
    return RatMatrix.from_rows([[c[i] for c in columns] for i in range(rows)])


def test_profile_at_profile_cap_finishes(tmp_path):
    m = wide_matrix(PROFILE_EDGE_ROWS, PROFILE_CAP)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(m)))
    p = run_cli("profile", str(path))
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout)
    assert result["method"] == "exact"
    achieved = result["profile"]["achieved"]
    # generic columns: a direction makes at most PROFILE_EDGE_ROWS columns
    # coincide (rows - 1 conditions), and every count above that is reached
    assert achieved == list(range(PROFILE_CAP - PROFILE_EDGE_ROWS + 1,
                                  PROFILE_CAP + 1))
    for count, alpha in result["profile"]["witnesses"].items():
        assert multiplicity(m, vec(alpha)) == int(count)


def test_profile_past_profile_cap_exits_3(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(matrix_to_json(
        wide_matrix(PROFILE_EDGE_ROWS, PROFILE_CAP + 1))))
    out = tmp_path / "out.json"
    p = run_cli("profile", str(path), "--out", str(out))
    assert p.returncode == 3
    error = json.loads(p.stderr)
    assert error["error"] == "too-large"
    assert "limprof profile --sample" in error["message"]
    assert not out.exists() and p.stdout == ""


@pytest.mark.parametrize("rows", [1, PROFILE_EDGE_ROWS, PROFILE_CAP + 1])
def test_profile_cap_is_checked_before_the_walk(rows, monkeypatch):
    def no_walk(*args):
        raise AssertionError("pattern walk started past the cap")

    monkeypatch.setattr(engine, "_patterns", no_walk)
    monkeypatch.setattr(engine, "_integer_columns", no_walk)
    m = RatMatrix.from_rows([[j + i * (PROFILE_CAP + 1) for j in range(PROFILE_CAP + 1)]
                             for i in range(rows)])
    with pytest.raises(TooLargeError):
        profile(m)


def test_odd_at_odd_cap_finishes_and_verifies(tmp_path):
    out = tmp_path / "odd.json"
    p = run_cli("construct", "odd", "--k", str(ODD_CAP), "--out", str(out))
    assert p.returncode == 0, p.stderr
    counts = json.loads(p.stdout)["counts"]
    assert counts and all(c % 2 == 1 and c >= 3 for c in counts)
    v = run_cli("verify", str(tmp_path / "odd.cert.json"))
    assert v.returncode == 0, v.stderr
    assert json.loads(v.stdout)["verified"] is True


def test_odd_past_odd_cap_exits_3(tmp_path):
    out = tmp_path / "odd.json"
    p = run_cli("construct", "odd", "--k", str(ODD_CAP + 1), "--out", str(out))
    assert p.returncode == 3
    assert json.loads(p.stderr)["error"] == "too-large"
    assert not out.exists() and p.stdout == ""


def test_odd_cap_is_checked_before_the_sign_vectors(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("odd_space started building past the cap")

    monkeypatch.setattr(builders, "product", no_build)
    with pytest.raises(TooLargeError):
        odd_space(ODD_CAP + 1)
