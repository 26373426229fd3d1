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
  k == ODD_CAP + 1. ``verify`` of an odd certificate refuses a k past the
  cap (exit 3) and a matrix that is not ``odd_space(k)`` (exit 2), of the
  wrong shape or of the right one, before any work.
- ``FAMILY_CAP`` admits ``construct independent`` while split^k <=
  FAMILY_CAP: for each split, the largest such k and k + 1, and a k of
  10^12 is refused at once.
- ``POLYGON_CAP`` admits ``construct polygon --n`` up to POLYGON_CAP:
  n == POLYGON_CAP and n == POLYGON_CAP + 1.
- ``SAMPLE_CAP`` admits ``sample --len`` up to SAMPLE_CAP on the paths that
  visit every index, ``--gen rich`` and ``--csv``: both at once at
  --len == SAMPLE_CAP, and each alone at SAMPLE_CAP + 1.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import limprof.builders as builders
import limprof.certificates as certificates
import limprof.cli as cli
import limprof.engine as engine
from limprof.builders import (
    FAMILY_CAP,
    GENERIC_CAP,
    ODD_CAP,
    POLYGON_CAP,
    generic_vectors,
    independent_family,
    odd_space,
    polygon_space,
)
from limprof.cli import SAMPLE_CAP
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


@pytest.mark.parametrize("rows", [1, 2, PROFILE_EDGE_ROWS, PROFILE_CAP + 1])
def test_profile_cap_is_checked_before_the_walk(rows, monkeypatch):
    def no_walk(*args):
        raise AssertionError("pattern walk or direction census started past the cap")

    monkeypatch.setattr(engine, "_patterns", no_walk)
    monkeypatch.setattr(engine, "direction_census", no_walk)
    monkeypatch.setattr(engine, "integer_vectors", no_walk)
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


def crafted_odd_certificate(path: Path, k: int, rows: int, cols: int) -> None:
    """The golden odd-2 certificate with params.k = k and a rows x cols
    0/1 matrix, ones on the diagonal."""
    golden = Path(__file__).parent / "data" / "golden" / "odd-2.cert.json"
    cert = json.loads(golden.read_text())
    cert["params"]["k"] = k
    cert["inputs"]["matrix"] = {
        "rows": rows, "cols": cols,
        "entries": [["1" if i == j else "0" for j in range(cols)] for i in range(rows)],
    }
    path.write_text(json.dumps(cert))


ODD_VERIFY_REFUSALS = [
    (14, 14, 13, 3, "too-large"),  # k past ODD_CAP
    (3, 3, 20_000, 2, "shape"),  # not k x 3^k: a 300 KB file
    (3, 3, 27, 2, "shape"),  # k x 3^k, but not odd_space(k)
]


@pytest.mark.parametrize("k, rows, cols, code, error", ODD_VERIFY_REFUSALS)
def test_verify_odd_certificate_refuses_cap_and_shape_first(k, rows, cols, code, error,
                                                             tmp_path, monkeypatch, capsys):
    cert = tmp_path / "odd.cert.json"
    crafted_odd_certificate(cert, k, rows, cols)

    def no_work(*args, **kwargs):
        raise AssertionError("odd payload started work before its checks")

    monkeypatch.setattr(certificates, "profile", no_work)
    monkeypatch.setattr(certificates, "multiplicity", no_work)
    monkeypatch.setattr(certificates, "integer_vectors", no_work)
    start = time.perf_counter()
    assert cli.main(["verify", str(cert)]) == code
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == error
    assert list(tmp_path.iterdir()) == [cert]


def family_edge(split):
    """The largest k with split^k <= FAMILY_CAP."""
    k = 1
    while split ** (k + 1) <= FAMILY_CAP:
        k += 1
    return k


def construct_and_verify(tmp_path, kind, *flags):
    out = tmp_path / f"{kind}.json"
    p = run_cli("construct", kind, *flags, "--out", str(out))
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout)["pass"] is True
    v = run_cli("verify", str(tmp_path / f"{kind}.cert.json"))
    assert v.returncode == 0, v.stderr
    assert json.loads(v.stdout)["verified"] is True
    return out


def construct_past_cap(tmp_path, kind, *flags):
    out = tmp_path / f"{kind}.json"
    p = run_cli("construct", kind, *flags, "--out", str(out))
    assert p.returncode == 3
    assert json.loads(p.stderr)["error"] == "too-large"
    assert not out.exists() and p.stdout == ""
    assert not (tmp_path / f"{kind}.cert.json").exists()


@pytest.mark.parametrize("split", [2, 3])
def test_independent_at_family_cap_finishes_and_verifies(split, tmp_path):
    k = family_edge(split)
    assert split**k <= FAMILY_CAP < split ** (k + 1)
    out = construct_and_verify(tmp_path, "independent", "--k", str(k),
                               "--split", str(split))
    assert len(json.loads(out.read_text())["atoms"]) == split**k


@pytest.mark.parametrize("split", [2, 3])
def test_independent_past_family_cap_exits_3(split, tmp_path):
    construct_past_cap(tmp_path, "independent", "--k", str(family_edge(split) + 1),
                       "--split", str(split))


@pytest.mark.parametrize("split", [2, 3])
def test_independent_with_a_huge_k_exits_3_at_once(split, tmp_path):
    """The cap check does not compute split^k for a k of 10^12, a few bytes
    on the command line or in a certificate."""
    construct_past_cap(tmp_path, "independent", "--k", str(10**12), "--split", str(split))


@pytest.mark.parametrize("split", [2, 3])
def test_family_cap_is_checked_before_the_atoms(split, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("independent_family started building past the cap")

    monkeypatch.setattr(builders, "product", no_build)
    with pytest.raises(TooLargeError):
        independent_family(family_edge(split) + 1, split)


def test_polygon_at_polygon_cap_finishes_and_verifies(tmp_path):
    construct_and_verify(tmp_path, "polygon", "--n", str(POLYGON_CAP))


def test_polygon_past_polygon_cap_exits_3(tmp_path):
    construct_past_cap(tmp_path, "polygon", "--n", str(POLYGON_CAP + 1))


def test_polygon_cap_is_checked_before_the_vertices(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("polygon_space started building past the cap")

    monkeypatch.setattr(builders, "approx_regular_polygon", no_build)
    with pytest.raises(TooLargeError):
        polygon_space(POLYGON_CAP + 1)


def test_sample_at_sample_cap_finishes(tmp_path):
    csv_path, cl_path = tmp_path / "rich.csv", tmp_path / "cl.json"
    p = run_cli("sample", "--gen", "rich", "--q", "7/9", "--len", str(SAMPLE_CAP),
                "--csv", str(csv_path), "--clusters", str(cl_path))
    assert p.returncode == 0, p.stderr
    assert sum(k for _, k in json.loads(p.stdout)["centers"]) == SAMPLE_CAP // 2
    assert cl_path.read_text() == p.stdout
    with csv_path.open() as fh:
        assert sum(1 for _ in fh) == SAMPLE_CAP + 1


def linear_sample_flags(path, tmp_path):
    """A sample that visits every index: rich, or fq written to a CSV."""
    if path == "rich":
        return ["--gen", "rich", "--q", "7/9"]
    return ["--gen", "fq", "--q", "1/2", "--csv", str(tmp_path / "x.csv")]


@pytest.mark.parametrize("path", ["rich", "csv"])
def test_sample_past_sample_cap_exits_3(path, tmp_path):
    p = run_cli("sample", *linear_sample_flags(path, tmp_path), "--len", str(SAMPLE_CAP + 1),
                "--clusters", str(tmp_path / "cl.json"))
    assert p.returncode == 3
    assert json.loads(p.stderr)["error"] == "too-large"
    assert p.stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("path", ["rich", "csv"])
def test_sample_cap_is_checked_before_the_estimate(path, tmp_path, monkeypatch):
    def no_estimate(*args, **kwargs):
        raise AssertionError("estimate started past the cap")

    monkeypatch.setattr(cli, "estimate_clusters", no_estimate)
    argv = ["sample", *linear_sample_flags(path, tmp_path), "--len", str(SAMPLE_CAP + 1)]
    assert cli.main(argv) == 3
    assert list(tmp_path.iterdir()) == []
