import io
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import limprof
import limprof.cli as cli
import limprof.lab as lab
from limprof.kernel import rat_str

from lab_oracle import evaluate


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "limprof.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def test_construct_interval_writes_artifact_and_certificate(workdir):
    out = workdir / "m.json"
    p = run_cli("construct", "interval", "--n", "2", "--d", "1", "--out", str(out))
    assert p.returncode == 0
    artifact = json.loads(out.read_text())
    assert artifact["rows"] == 2 and artifact["cols"] == 3
    cert = json.loads((workdir / "m.cert.json").read_text())
    assert cert["claim"] == "interval-profile"
    assert cert["verification"]["pass"] is True
    summary = json.loads(p.stdout)
    assert summary["counts"] == [2, 3]


def test_construct_to_stdout_without_out():
    p = run_cli("construct", "odd", "--k", "2")
    assert p.returncode == 0
    cert = json.loads(p.stdout)
    assert cert["claim"] == "odd-profile"
    assert cert["verification"]["counts"] == [3, 5, 7, 9]


def test_construct_then_verify_roundtrip(workdir):
    for kind, flags in [
        ("interval", ["--n", "3", "--d", "1"]),
        ("odd", ["--k", "2"]),
        ("polygon", ["--n", "5"]),
        ("independent", ["--k", "3"]),
        ("spaceable", ["--n-max", "2", "--k-max", "4"]),
    ]:
        out = workdir / f"{kind}.json"
        p = run_cli("construct", kind, *flags, "--out", str(out))
        assert p.returncode == 0, p.stderr
        v = run_cli("verify", str(workdir / f"{kind}.cert.json"))
        assert v.returncode == 0, v.stderr
        assert json.loads(v.stdout)["verified"] is True


def test_profile_command(workdir):
    out = workdir / "m.json"
    run_cli("construct", "interval", "--n", "2", "--d", "1", "--out", str(out))
    p = run_cli("profile", str(out))
    assert p.returncode == 0
    data = json.loads(p.stdout)
    assert data["method"] == "exact"
    assert data["profile"]["achieved"] == [2, 3]


def test_profile_merges_duplicate_columns(workdir):
    path = workdir / "dup.json"
    path.write_text(json.dumps(
        {"rows": 1, "cols": 3, "entries": [["1", "2", "1"]]}
    ))
    p = run_cli("profile", str(path))
    assert p.returncode == 0
    data = json.loads(p.stdout)
    assert "note" in data
    assert data["columnGroups"] == [[0, 2], [1]]
    assert data["profile"]["achieved"] == [2]


def test_profile_cap_exit_code(workdir):
    path = workdir / "wide.json"
    path.write_text(json.dumps(
        {"rows": 1, "cols": 13, "entries": [[str(i) for i in range(13)]]}
    ))
    p = run_cli("profile", str(path))
    assert p.returncode == 3
    err = json.loads(p.stderr)
    assert err["error"] == "too-large"


def test_profile_sampling_mode_with_seed(workdir):
    path = workdir / "wide.json"
    path.write_text(json.dumps(
        {"rows": 1, "cols": 13, "entries": [[str(i) for i in range(13)]]}
    ))
    a = run_cli("profile", str(path), "--sample", "2", "--seed", "5")
    b = run_cli("profile", str(path), "--sample", "2", "--seed", "5")
    assert a.returncode == 0
    assert a.stdout == b.stdout  # same seed, same output
    data = json.loads(a.stdout)
    assert data["method"] == "sampled-lower-bound"
    assert data["profile"]["achieved"] == [13]


def test_profile_malformed_json_exit_2(workdir):
    path = workdir / "broken.json"
    path.write_text("{not json")
    p = run_cli("profile", str(path))
    assert p.returncode == 2


def test_profile_bool_entries_exit_2(workdir):
    """JSON true/false are not the numbers 1/0: refused like a float entry."""
    path = workdir / "m.json"
    path.write_text(json.dumps({"entries": [[True, False, 2], [0, 1, True]]}))
    p = run_cli("profile", str(path))
    assert p.returncode == 2
    assert p.stdout == ""


def test_refute_command(workdir):
    path = workdir / "m.json"
    path.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["1", "0"]]}
    ))
    cert = workdir / "r.cert.json"
    p = run_cli("refute", str(path), "--n", "2", "--d", "0", "--cert", str(cert))
    assert p.returncode == 0
    line = json.loads(p.stdout)
    assert line["escapes"] is True and line["multiplicity"] == 1
    v = run_cli("verify", str(cert))
    assert v.returncode == 0


def test_refute_too_few_rows_exit_2(workdir):
    path = workdir / "m.json"
    path.write_text(json.dumps(
        {"rows": 1, "cols": 2, "entries": [["0", "1"]]}
    ))
    p = run_cli("refute", str(path), "--n", "2", "--d", "0")
    assert p.returncode == 2
    assert json.loads(p.stderr)["error"] == "too-few-rows"


def test_escape_command_and_not_found(workdir):
    pair = {
        "x": {"atoms": ["a", "b"], "values": ["0", "1"]},
        "y": {"atoms": ["c", "d", "e", "f", "g"],
              "values": ["0", "1", "2", "3", "4"]},
        "relation": {
            "left": ["a", "b"],
            "right": ["c", "d", "e", "f", "g"],
            "pairs": [[0, 0], [0, 1], [0, 2], [1, 3], [1, 4]],
        },
    }
    path = workdir / "pair.json"
    path.write_text(json.dumps(pair))
    cert = workdir / "esc.cert.json"
    p = run_cli("escape", str(path), "--forbidden", "2,5", "--cert", str(cert))
    assert p.returncode == 0
    assert json.loads(p.stdout)["found"] is True
    v = run_cli("verify", str(cert))
    assert v.returncode == 0
    # forbidding every reachable count forces a miss
    p = run_cli("escape", str(path), "--forbidden", "1,2,3,4")
    assert p.returncode == 1
    assert json.loads(p.stdout)["found"] is False


def test_sample_csv_and_clusters(workdir):
    csv_path = workdir / "x.csv"
    cl_path = workdir / "cl.json"
    p = run_cli(
        "sample", "--gen", "combo", "--d", "1,1", "--q", "1/2,1/3",
        "--len", "4096", "--epsilon", "1e-4",
        "--csv", str(csv_path), "--clusters", str(cl_path),
    )
    assert p.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,value"
    assert lines[1] == "0,2"
    assert len(lines) == 4097
    clusters = json.loads(cl_path.read_text())
    assert clusters["epsilon"] == 1e-4
    assert len(clusters["centers"]) >= 10


def test_sample_exact_csv(workdir):
    csv_path = workdir / "exact.csv"
    p = run_cli(
        "sample", "--gen", "fq", "--q", "1/2", "--len", "8",
        "--csv", str(csv_path), "--exact",
    )
    assert p.returncode == 0
    lines = csv_path.read_text().splitlines()
    assert lines[1:] == [
        "0,1", "1,1/2", "2,1", "3,1/4", "4,1", "5,1/2", "6,1", "7,1/8",
    ]


@pytest.mark.parametrize("gen", [["fq", "--q", "1/2"], ["rich", "--q", "2/3"]])
@pytest.mark.parametrize("length", [1, 7, 64, 1000])
@pytest.mark.parametrize("exact", [False, True])
def test_sample_csv_streams_rows(gen, length, exact, workdir, capsys):
    """The CSV has the bytes that value_at gives index by index."""
    seq = {"fq": lab.gen_fq, "rich": lab.gen_rich}[gen[0]](gen[2])
    cells = [rat_str(v) if exact else f"{float(v):.17g}" for v in evaluate(seq, length)]
    expected = "index,value\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells))
    csv_path = workdir / "x.csv"
    argv = ["sample", "--gen", *gen, "--len", str(length), "--csv", str(csv_path)]
    assert cli.main(argv + ["--exact"] if exact else argv) == 0
    assert csv_path.read_bytes() == expected.encode()
    assert json.loads(capsys.readouterr().out)["centers"]


def test_sample_range_error_exit_2(workdir):
    p = run_cli("sample", "--gen", "fq", "--q", "3/2", "--len", "16")
    assert p.returncode == 2
    assert json.loads(p.stderr)["error"] == "range"


@pytest.mark.parametrize("flags", [
    ["--len", "0"],
    ["--len", "64", "--tail", "0"],
    ["--len", "64", "--epsilon", "nan"],
    ["--len", "64", "--epsilon", "inf"],
    ["--len", "64", "--epsilon", "-1"],
])
def test_sample_bad_input_writes_nothing(workdir, flags):
    csv_path, cl_path = workdir / "out.csv", workdir / "cl.json"
    for gen in (["fq", "--q", "1/2"], ["rich", "--q", "1/2"]):
        p = run_cli("sample", "--gen", *gen, *flags,
                    "--csv", str(csv_path), "--clusters", str(cl_path))
        assert p.returncode == 2, p.stderr
        assert p.stdout == ""
        assert json.loads(p.stderr)["error"] in ("empty", "range")
        assert not csv_path.exists() and not cl_path.exists()


def test_sample_huge_prefix_of_valuation_generator():
    """combo's tail is read atom by atom, so a 2^40 prefix is instant."""
    p = run_cli("sample", "--gen", "combo", "--d", "1,1", "--q", "1/2,1/3",
                "--len", str(1 << 40), timeout=20)
    assert p.returncode == 0, p.stderr
    centers = json.loads(p.stdout)["centers"]
    assert sum(k for _, k in centers) == 1 << 39


def test_verify_tampered_exit_1(workdir):
    out = workdir / "m.json"
    run_cli("construct", "interval", "--n", "2", "--d", "0", "--out", str(out))
    cert_path = workdir / "m.cert.json"
    cert = json.loads(cert_path.read_text())
    cert["verification"]["low"] = 9
    cert_path.write_text(json.dumps(cert))
    p = run_cli("verify", str(cert_path))
    assert p.returncode == 1
    assert "verification.low" in p.stderr


GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def verify_edited(workdir, name, edit):
    """`limprof verify` in-process on golden certificate ``name`` after
    ``edit`` changed its JSON: exit code, stdout and stderr."""
    cert = json.loads((GOLDEN / f"{name}.cert.json").read_text(encoding="utf-8"))
    edit(cert)
    path = workdir / "edited.cert.json"
    path.write_text(json.dumps(cert), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


def test_verify_rejects_extra_param(workdir):
    code, out, err = verify_edited(workdir, "escape-2x5",
                                   lambda c: c["params"].update(extra=1))
    assert code == 1 and json.loads(out)["verified"] is False
    assert err.splitlines() == ["params.extra: stored 1 != recomputed None"]


def test_verify_rejects_extra_input(workdir):
    code, out, err = verify_edited(workdir, "escape-2x5",
                                   lambda c: c["inputs"].update(extra=[]))
    assert code == 1 and json.loads(out)["verified"] is False
    assert err.splitlines() == ["inputs.extra: stored [] != recomputed None"]


def test_verify_rejects_extra_top_level_key(workdir):
    code, out, err = verify_edited(workdir, "escape-2x5", lambda c: c.update(bogus="x"))
    assert code == 1 and json.loads(out)["verified"] is False
    assert err.splitlines() == ["bogus: stored 'x' != recomputed None"]


def test_verify_checks_mode_against_inputs(workdir):
    """vertices imply an approximate census, a matrix an exact profile."""
    code, out, err = verify_edited(workdir, "polygon-5-approximate",
                                   lambda c: c.update(mode="exact"))
    assert code == 1 and json.loads(out)["verified"] is False
    assert err.splitlines() == ["mode: stored 'exact' != recomputed 'approximate'"]
    code, _, err = verify_edited(workdir, "polygon-3-exact",
                                 lambda c: c.update(mode="approximate"))
    assert code == 1 and err.splitlines() == [
        "mode: stored 'approximate' != recomputed 'exact'"]


def test_verify_compares_json_types(workdir):
    """2.0 for 2 and 1 for true are equal in Python but not the bytes that
    construct writes."""
    def retype(c):
        c["verification"]["low"] = float(c["verification"]["low"])
        c["verification"]["pass"] = 1

    code, _, err = verify_edited(workdir, "interval-2-1", retype)
    assert code == 1 and err.splitlines() == [
        "verification.low: stored 2.0 != recomputed 2",
        "verification.pass: stored 1 != recomputed True"]


@pytest.mark.parametrize("name", sorted(p.name[:-len(".cert.json")] for p in GOLDEN.iterdir()))
def test_verify_reads_every_golden_certificate(workdir, name):
    """Unchanged, and without toolVersion, every golden certificate verifies;
    a param that is not a string, written as one, is malformed input."""
    code, out, _ = verify_edited(workdir, name, lambda c: None)
    assert code == 0 and json.loads(out)["verified"] is True
    code, out, _ = verify_edited(workdir, name, lambda c: c.pop("toolVersion"))
    assert code == 0 and json.loads(out)["verified"] is True

    def retype(c):
        key = min(k for k, v in c["params"].items() if type(v) is not str)
        c["params"][key] = str(c["params"][key])

    assert verify_edited(workdir, name, retype)[0] == 2


@pytest.mark.parametrize("version, code", [
    (None, 0),  # no toolVersion: taken as this version
    (limprof.__version__, 0),
    ("0.0.9", 2),
    ("9.9.9", 2),
    (1, 2),
])
def test_verify_checks_tool_version(workdir, version, code):
    out = workdir / "m.json"
    run_cli("construct", "interval", "--n", "2", "--d", "0", "--out", str(out))
    cert_path = workdir / "m.cert.json"
    cert = json.loads(cert_path.read_text())
    assert cert["toolVersion"] == limprof.__version__
    if version is None:
        del cert["toolVersion"]
    else:
        cert["toolVersion"] = version
    cert_path.write_text(json.dumps(cert))
    p = run_cli("verify", str(cert_path))
    assert p.returncode == code, p.stderr
    if code:
        assert p.stdout == ""
        error = json.loads(p.stderr)
        assert error["error"] == "error" and str(version) in error["message"]
    else:
        assert json.loads(p.stdout)["verified"] is True


def test_missing_file_exit_2():
    p = run_cli("verify", "/nonexistent/cert.json")
    assert p.returncode == 2


@pytest.mark.parametrize("vertices, error", [
    ([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], "degenerate"),
    ([], "empty"),
    ([[1.0], [0.0, 1.0], [-1.0, 0.0]], "shape"),  # a vertex is exactly two floats
    ([[1.0, 0.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], "shape"),
])
def test_verify_malformed_polygon_certificate_exit_2(workdir, vertices, error):
    out = workdir / "p.json"
    run_cli("construct", "polygon", "--n", "4", "--out", str(out))
    cert_path = workdir / "p.cert.json"
    cert = json.loads(cert_path.read_text())
    cert["inputs"]["vertices"] = vertices
    cert_path.write_text(json.dumps(cert))
    p = run_cli("verify", str(cert_path))
    assert p.returncode == 2, p.stderr
    assert json.loads(p.stderr)["error"] == error
    assert "Traceback" not in p.stderr


def test_construct_polygon_over_cap_exit_3():
    from limprof.geometry import POLYGON_CAP

    p = run_cli("construct", "polygon", "--n", str(POLYGON_CAP + 1))
    assert p.returncode == 3, p.stderr
    assert json.loads(p.stderr)["error"] == "too-large"


def test_verify_oversized_polygon_certificate_exit_3(workdir):
    from limprof.geometry import POLYGON_CAP

    out = workdir / "p.json"
    run_cli("construct", "polygon", "--n", "4", "--out", str(out))
    cert_path = workdir / "p.cert.json"
    cert = json.loads(cert_path.read_text())
    cert["inputs"]["vertices"] = [[float(i), float(i * i)]
                                  for i in range(2 * POLYGON_CAP + 1)]
    cert_path.write_text(json.dumps(cert))
    p = run_cli("verify", str(cert_path))
    assert p.returncode == 3, p.stderr
    assert json.loads(p.stderr)["error"] == "too-large"


@pytest.mark.parametrize("module, name, broken", [
    ("engine", "_multiplicity", lambda cols, alpha: 2),  # a broken invariant
    ("certificates", "refute_interval", lambda mat, n, d: n + "0"),  # TypeError
    ("certificates", "refute_interval", lambda mat, n, d: n // 0),  # ZeroDivisionError
], ids=["invariant", "TypeError", "ZeroDivisionError"])
def test_internal_error_exit_4(workdir, monkeypatch, capsys, module, name, broken):
    """A broken invariant, or any exception raised after the input was read,
    is a library bug: exit 4, never 1 or 2, one JSON line and no answer."""
    path = workdir / "m.json"
    path.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["0", "1"], ["1", "0"]]}
    ))
    monkeypatch.setattr(getattr(limprof, module), name, broken)
    assert cli.main(["refute", str(path), "--n", "2", "--d", "0"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "internal"


# A well-formed escape input; every malformed one below differs from it in
# exactly one place.
VALID_PAIR = {
    "x": {"atoms": ["a", "b", "c"], "values": ["0", "1", "-2/3"]},
    "y": {"atoms": ["d", "e", "f"], "values": ["0", "1/2", "3"]},
    "relation": {"left": ["a", "b", "c"], "right": ["d", "e", "f"],
                 "pairs": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 0], [2, 2]]},
}
OBJECTS = {(): ("x", "y", "relation"), ("x",): ("atoms", "values"),
           ("y",): ("atoms", "values"), ("relation",): ("left", "right", "pairs")}
ID_LISTS = [("x", "atoms"), ("y", "atoms"), ("relation", "left"), ("relation", "right")]
VALUE_LISTS = [("x", "values"), ("y", "values")]
LISTS = ID_LISTS + VALUE_LISTS + [("relation", "pairs")]

ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6,
)
# Fraction's grammar needs a decimal digit, so text without one is never a
# rational; the listed strings have digits and are still not rationals.
NON_RATIONAL = st.text(st.characters(exclude_categories=("Nd",)), max_size=6) | st.sampled_from(
    ["1/0", "-7/0", "0/0", "1/2/3", "1//2", "2/-3", "0x1f", "1 2", "--1", "/3"])


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _malformed_pair(draw):
    pair = json.loads(json.dumps(VALID_PAIR))
    kind = draw(st.sampled_from(["wrong type", "missing key", "extra key",
                                 "mismatched ids", "non-rational", "empty list"]))
    if kind == "wrong type":
        node = draw(st.sampled_from(["object", "list", "id", "value", "pair", "index"]))
        if node == "object":
            path = draw(st.sampled_from(sorted(OBJECTS)))
            bad = draw(ANY_JSON.filter(lambda v: not isinstance(v, dict)))
        elif node == "list":
            path = draw(st.sampled_from(LISTS))
            bad = draw(ANY_JSON.filter(lambda v: not isinstance(v, list)))
        elif node == "id":
            path = (*draw(st.sampled_from(ID_LISTS)), draw(st.integers(0, 2)))
            bad = draw(ANY_JSON.filter(lambda v: not isinstance(v, str)))
        elif node == "value":
            path = (*draw(st.sampled_from(VALUE_LISTS)), draw(st.integers(0, 2)))
            bad = draw(ANY_JSON.filter(lambda v: not isinstance(v, (int, str))
                                       or isinstance(v, bool)))
        elif node == "pair":
            path = ("relation", "pairs", draw(st.integers(0, 5)))
            bad = draw(ANY_JSON.filter(lambda v: not isinstance(v, list) or len(v) != 2))
        else:
            path = ("relation", "pairs", draw(st.integers(0, 5)), draw(st.integers(0, 1)))
            bad = draw(ANY_JSON.filter(lambda v: type(v) is not int))
        if path:
            _at(pair, path[:-1])[path[-1]] = bad
        else:
            pair = bad
    elif kind == "missing key":
        path = draw(st.sampled_from(sorted(OBJECTS)))
        del _at(pair, path)[draw(st.sampled_from(OBJECTS[path]))]
    elif kind == "extra key":
        path = draw(st.sampled_from(sorted(OBJECTS)))
        key = draw(st.text(max_size=6).filter(lambda k: k not in OBJECTS[path]))
        _at(pair, path)[key] = draw(ANY_JSON)
    elif kind == "mismatched ids":
        side, atoms = draw(st.sampled_from([("left", "x"), ("right", "y")]))
        ids = draw(st.lists(st.text(max_size=3), max_size=4, unique=True)
                   .filter(lambda ids: ids != pair[atoms]["atoms"]))
        pair["relation"][side] = ids
    elif kind == "non-rational":
        path = draw(st.sampled_from(VALUE_LISTS))
        _at(pair, path)[draw(st.integers(0, 2))] = draw(NON_RATIONAL)
    else:
        path = draw(st.sampled_from(LISTS))
        _at(pair, path[:-1])[path[-1]] = []
    return kind, pair


def run_escape_in_process(pair, path):
    path.write_text(json.dumps(pair), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["escape", str(path), "--forbidden", "1,2"])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def pair_path(tmp_path_factory):
    return tmp_path_factory.mktemp("escape-fuzz") / "pair.json"


def test_escape_accepts_the_valid_pair(pair_path):
    code, out, err = run_escape_in_process(VALID_PAIR, pair_path)
    assert code == 0 and err == ""
    assert json.loads(out)["claim"] == "escape"


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_escape_rejects_malformed_pair_json(pair_path, data):
    """Malformed pair JSON exits 2 or 3 with one JSON error line on stderr,
    never a traceback and never an answer."""
    kind, pair = _malformed_pair(data.draw)
    code, out, err = run_escape_in_process(pair, pair_path)
    assert code in (2, 3), (kind, pair, out)
    assert out == "" and "Traceback" not in err
    assert json.loads(err)["error"]


def run_in_process(argv):
    """Exit code, stdout and stderr of one ``cli.main`` call, argparse's
    own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_exponent_notation_exits_2_at_once(tmp_path):
    """Fraction would read "1e100000000" as a 10^(10^8) integer; a flag, a
    matrix entry and a pair value holding it are malformed input."""
    huge = "1e100000000"
    matrix = tmp_path / "m.json"
    matrix.write_text(json.dumps({"entries": [["1", huge, "0"], ["0", "1", "2"]]}))
    pair = json.loads(json.dumps(VALID_PAIR))
    pair["y"]["values"][1] = huge
    pair_path = tmp_path / "pair.json"
    pair_path.write_text(json.dumps(pair))
    for argv in (["sample", "--gen", "fq", "--q", huge, "--len", "8"],
                 ["profile", str(matrix)],
                 ["escape", str(pair_path), "--forbidden", "1,2"]):
        start = time.perf_counter()
        code, out, err = run_in_process(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and out == "" and "Traceback" not in err, (argv, err)
        assert huge in err


BIG = "9" * 5000  # past Python's 4300-digit limit on int <-> str conversion
LATIN_1 = json.dumps({"about": "caf\u00e9"}, ensure_ascii=False).encode("latin-1")
UNREADABLE = {
    "matrix-entry-string": ("profile", json.dumps({"entries": [["1", BIG], ["0", "1"]]})),
    "matrix-entry-number": ("profile", '{"entries": [["1", %s], ["0", "1"]]}' % BIG),
    "pair-value-string": ("escape", json.dumps(VALID_PAIR).replace('"1/2"', f'"{BIG}"')),
    "pair-value-number": ("escape", json.dumps(VALID_PAIR).replace('"1/2"', BIG)),
    "profile-latin-1": ("profile", LATIN_1),
    "escape-latin-1": ("escape", LATIN_1),
    "verify-latin-1": ("verify", LATIN_1),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_exits_2_at_once(tmp_path, case):
    """A 5000-digit integer, which Python refuses to convert, and a file that
    is not UTF-8 are malformed input: exit 2 with one JSON error line."""
    command, content = UNREADABLE[case]
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    argv = [command, str(path), *(["--forbidden", "1,2"] if command == "escape" else [])]
    start = time.perf_counter()
    code, out, err = run_in_process(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and "Traceback" not in err, err
    assert json.loads(err)["error"] == "shape"


@pytest.mark.parametrize("flags", [
    ["fq", "--q", "1/2,1/3"], ["fq"], ["rich", "--q", "1/2,2/3"], ["rich"], ["combo"],
], ids=["fq-two", "fq-none", "rich-two", "rich-none", "combo-none"])
def test_sample_checks_the_count_of_q_values_before_building(flags, tmp_path, monkeypatch):
    def no_build(*args):
        raise AssertionError("the generator was built before its --q values were checked")

    for gen in ("gen_fq", "gen_rich", "gen_combo"):
        monkeypatch.setattr(cli, gen, no_build)
    clusters = tmp_path / "c.json"
    code, out, err = run_in_process(["sample", "--gen", *flags, "--len", "8",
                                     "--clusters", str(clusters)])
    assert code == 2 and out == "" and not clusters.exists()
    assert "--q" in json.loads(err)["message"]


# Subcommands and flags mixed; the second call leaves out the --alpha the
# first one set, and the fourth is malformed (argparse exits 2).
REUSE_CALLS = [
    ["sample", "--gen", "spaceable", "--alpha", "2,3", "--len", "64", "--clusters", "c1.json"],
    ["sample", "--gen", "spaceable", "--len", "64", "--clusters", "c2.json"],
    ["construct", "odd", "--k", "2", "--out", "odd.json"],
    ["construct", "odd", "--k", "two"],
    ["sample", "--gen", "combo", "--q", "1/2", "--len", "64"],
    ["sample", "--gen", "spaceable", "--alpha", "2,3", "--len", "64", "--clusters", "c1.json"],
]


def test_one_parser_serves_every_call_of_a_process(tmp_path, monkeypatch):
    """main reuses one parser; each call's exit code, stdout, stderr and
    files equal those of a parser built fresh for that call."""
    assert cli._parser() is cli._parser()
    runs = {}
    for mode in ("shared", "fresh"):
        workdir = tmp_path / mode
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        if mode == "fresh":
            monkeypatch.setattr(cli, "_parser", cli.build_parser)
        outputs = [run_in_process(argv) for argv in REUSE_CALLS]
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        runs[mode] = outputs, files
    assert runs["shared"] == runs["fresh"]
    outputs, files = runs["shared"]
    assert [code for code, _, _ in outputs] == [0, 0, 0, 2, 2, 0]
    assert outputs[0] == outputs[-1] and outputs[0][1] != outputs[1][1]
    assert sorted(files) == ["c1.json", "c2.json", "odd.cert.json", "odd.json"]


def test_parser_is_built_on_first_use_not_at_import():
    code = ("import limprof.cli as cli; print(cli._parser.cache_info().currsize); "
            "cli._parser(); print(cli._parser.cache_info().currsize)")
    p = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert p.returncode == 0 and p.stdout.split() == ["0", "1"], p.stderr


@pytest.mark.parametrize("flag, value, reason", [
    ("--q", "1e5", "exponent notation"),
    ("--q", "1/0", "zero denominator"),
])
def test_bad_list_value_exits_2_with_its_reason(flag, value, reason):
    """A list flag names the value and why it was refused, not the private
    function that read it."""
    code, out, err = run_in_process(["sample", "--gen", "fq", flag, value, "--len", "8"])
    assert code == 2 and out == ""
    assert f"argument {flag}: {reason} in '{value}'" in err
    assert "_list" not in err and "Traceback" not in err


# Every flag that names an output file; "OUT" is where its path goes. The
# inputs m.json and pair.json are written to the working directory. In the
# two-output cases "KEPT" is a writable path, kept.out in that directory.
OUTPUT_FLAGS = {
    "construct-out": ["construct", "odd", "--k", "2", "--out", "OUT"],
    "construct-cert": ["construct", "odd", "--k", "2", "--cert", "OUT"],
    "construct-kept-out-cert": ["construct", "odd", "--k", "2", "--out", "KEPT",
                                "--cert", "OUT"],
    "construct-out-kept-cert": ["construct", "odd", "--k", "2", "--out", "OUT",
                                "--cert", "KEPT"],
    "profile-out": ["profile", "m.json", "--out", "OUT"],
    "refute-cert": ["refute", "m.json", "--n", "2", "--d", "0", "--cert", "OUT"],
    "escape-cert": ["escape", "pair.json", "--forbidden", "0", "--cert", "OUT"],
    "sample-clusters": ["sample", "--gen", "fq", "--q", "1/2", "--len", "8", "--clusters", "OUT"],
    "sample-csv": ["sample", "--gen", "fq", "--q", "1/2", "--len", "8", "--csv", "OUT"],
    "sample-kept-csv-clusters": ["sample", "--gen", "fq", "--q", "1/2", "--len", "8",
                                 "--csv", "KEPT", "--clusters", "OUT"],
    "sample-csv-kept-clusters": ["sample", "--gen", "fq", "--q", "1/2", "--len", "8",
                                 "--csv", "OUT", "--clusters", "KEPT"],
}


def run_with_an_unwritable_output(tmp_path, case, target):
    """Exit code, stdout and stderr of OUTPUT_FLAGS[case] with OUT in a
    missing directory or a directory, run in ``tmp_path``."""
    (tmp_path / "m.json").write_text(json.dumps({"entries": [["0", "1"], ["1", "0"]]}))
    (tmp_path / "pair.json").write_text(json.dumps(VALID_PAIR))
    out = tmp_path / "missing" / "out.json" if target == "missing-directory" else tmp_path
    paths = {"OUT": str(out), "KEPT": str(tmp_path / "kept.out")}
    return out, run_in_process([paths.get(a, a) for a in OUTPUT_FLAGS[case]])


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("case", sorted(OUTPUT_FLAGS))
def test_unwritable_output_exits_2(tmp_path, monkeypatch, case, target):
    """An output path that cannot be written is a bad argument: exit 2 with
    the code ``unwritable``, not ``malformed``, no answer on stdout, and
    no file created, the other output's included."""
    monkeypatch.chdir(tmp_path)
    before = ["m.json", "pair.json"]
    out, (code, stdout, err) = run_with_an_unwritable_output(tmp_path, case, target)
    assert code == 2 and stdout == "" and "Traceback" not in err, err
    error = json.loads(err)
    assert error["error"] == "unwritable" and str(out) in error["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("case", sorted(c for c in OUTPUT_FLAGS if "KEPT" in OUTPUT_FLAGS[c]))
def test_unwritable_output_keeps_an_existing_file(tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    kept = tmp_path / "kept.out"
    kept.write_bytes(b"earlier bytes\n")
    _, (code, _, _) = run_with_an_unwritable_output(tmp_path, case, "missing-directory")
    assert code == 2 and kept.read_bytes() == b"earlier bytes\n"


def test_construct_out_keeps_its_bytes_when_the_certificate_path_is_a_directory(tmp_path):
    out = tmp_path / "odd.json"
    out.write_bytes(b"earlier bytes\n")
    (tmp_path / "odd.cert.json").mkdir()
    code, stdout, err = run_in_process(["construct", "odd", "--k", "2", "--out", str(out)])
    assert code == 2 and stdout == "" and json.loads(err)["error"] == "unwritable"
    assert out.read_bytes() == b"earlier bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["odd.cert.json", "odd.json"]


@pytest.mark.parametrize("flags, final", [
    (["construct", "odd", "--k", "2", "--out", "SAME", "--cert", "SAME"], "certificate"),
    (["sample", "--gen", "fq", "--q", "1/2", "--len", "8", "--csv", "SAME",
      "--clusters", "SAME"], "clusters"),
])
def test_two_flags_naming_one_path_keep_the_later_output(tmp_path, flags, final):
    """The outputs are renamed into place in the order they were written,
    so the path holds the second one: the certificate, or the clusters."""
    same = tmp_path / "same.json"
    code, stdout, _ = run_in_process([str(same) if a == "SAME" else a for a in flags])
    assert code == 0 and [p.name for p in tmp_path.iterdir()] == ["same.json"]
    text = same.read_text(encoding="utf-8")
    if final == "certificate":
        assert json.loads(text)["claim"] == "odd-profile"
    else:
        assert text == stdout


@pytest.mark.parametrize("k, split", [(3, 2), (3, 3), (8, 3)])
def test_independent_artifact_bytes(tmp_path, k, split):
    """The artifact is the atom table as arrays, written as canonical JSON."""
    out = tmp_path / "family.json"
    code, _, err = run_in_process(["construct", "independent", "--k", str(k),
                                   "--split", str(split), "--out", str(out)])
    assert code == 0, err
    values = (0, 1) if split == 2 else (-1, 0, 1)
    expected = {"k": k, "split": split,
                "atoms": [list(a) for a in itertools.product(values, repeat=k)]}
    assert out.read_text(encoding="utf-8") == json.dumps(
        expected, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_bad_forbidden_count_exits_2_with_its_reason(pair_path):
    pair_path.write_text(json.dumps(VALID_PAIR), encoding="utf-8")
    code, out, err = run_in_process(["escape", str(pair_path), "--forbidden", "1,x"])
    assert code == 2 and out == ""
    assert "argument --forbidden: invalid literal for int()" in err
    assert "_list" not in err and "Traceback" not in err


# A well-formed matrix; every malformed one below differs from it in one
# place, or is not a JSON object, or is not JSON.
VALID_MATRIX = {"rows": 2, "cols": 3, "entries": [["0", "1", "-2/3"], [4, "1/2", "3"]]}
MATRIX_COMMANDS = [["profile"], ["refute", "--n", "2", "--d", "0"]]


@st.composite
def malformed_matrix_text(draw):
    mat = json.loads(json.dumps(VALID_MATRIX))
    kind = draw(st.sampled_from(["not json", "deep nesting", "not an object",
                                 "missing entries", "entries type", "row type",
                                 "non-rational", "count type", "count value",
                                 "ragged", "empty"]))
    if kind == "not json":
        text = json.dumps(mat)
        return kind, draw(st.just(text[:draw(st.integers(0, len(text) - 1))])
                          | st.text(max_size=12).filter(_not_json))
    if kind == "deep nesting":
        depth = draw(st.integers(1, 100_000))
        return kind, "[" * depth + "]" * depth
    if kind == "not an object":
        mat = draw(ANY_JSON.filter(lambda v: not isinstance(v, dict)))
    elif kind == "missing entries":
        del mat["entries"]
    elif kind == "entries type":
        mat["entries"] = draw(ANY_JSON.filter(lambda v: not isinstance(v, list))
                              | st.sampled_from(["0123", {"12": 3, "45": 6}]))
    elif kind == "row type":
        mat["entries"][draw(st.integers(0, 1))] = draw(
            ANY_JSON.filter(lambda v: not isinstance(v, list)) | st.just("123"))
    elif kind == "non-rational":
        row = mat["entries"][draw(st.integers(0, 1))]
        row[draw(st.integers(0, 2))] = draw(
            NON_RATIONAL | ANY_JSON.filter(lambda v: not isinstance(v, (int, str))
                                           or isinstance(v, bool)))
    elif kind == "count type":
        key = draw(st.sampled_from(["rows", "cols"]))
        mat[key] = draw(ANY_JSON.filter(lambda v: type(v) is not int)
                        | st.sampled_from([str(mat[key]), float(mat[key]), 1e400]))
    elif kind == "count value":
        key = draw(st.sampled_from(["rows", "cols"]))
        mat[key] = draw(st.integers().filter(lambda n: n != mat[key]))
    elif kind == "ragged":
        row = mat["entries"][draw(st.integers(0, 1))]
        if draw(st.booleans()):
            row.append(draw(st.sampled_from(["5", 6, "7/8"])))
        else:
            row.pop()
    else:
        mat["entries"] = draw(st.sampled_from([[], [[]], [[], []]]))
    return kind, json.dumps(mat)


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return tmp_path_factory.mktemp("matrix-fuzz") / "m.json"


@pytest.mark.parametrize("command", MATRIX_COMMANDS, ids=["profile", "refute"])
def test_matrix_commands_accept_the_valid_matrix(matrix_path, command):
    matrix_path.write_text(json.dumps(VALID_MATRIX), encoding="utf-8")
    code, out, err = run_in_process([command[0], str(matrix_path), *command[1:]])
    assert code == 0 and err == "" and out


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matrix_commands_reject_malformed_json(matrix_path, data):
    """Malformed matrix JSON exits 2 or 3 from profile and from refute, with
    one JSON error line on stderr, never a traceback and never an answer."""
    kind, text = data.draw(malformed_matrix_text())
    matrix_path.write_text(text, encoding="utf-8")
    for command in MATRIX_COMMANDS:
        code, out, err = run_in_process([command[0], str(matrix_path), *command[1:]])
        assert code in (2, 3), (kind, text[:200], command, out)
        assert out == "" and "Traceback" not in err
        assert json.loads(err)["error"]


GOLDEN_CERTS = {p.name: json.loads(p.read_text(encoding="utf-8"))
                for p in sorted(GOLDEN.iterdir())}
_PLACEHOLDER = "\u0000nested\u0000"


def _paths(obj, path=()):
    """Every path into a JSON value: its keys and indices, the root included."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _paths(value, path + (i,))


@st.composite
def malformed_certificate_text(draw):
    """A golden certificate with one structural change: a value of another
    JSON type, a key removed, a string that is no rational, or a value
    replaced by deeply nested lists. Returns the change and the JSON text."""
    name = draw(st.sampled_from(sorted(GOLDEN_CERTS)))
    cert = json.loads(json.dumps(GOLDEN_CERTS[name]))
    kind = draw(st.sampled_from(["wrong type", "missing key", "non-rational", "deep nesting"]))
    paths = list(_paths(cert))
    if kind == "missing key":
        path = draw(st.sampled_from([p for p in paths if p and isinstance(p[-1], str)]))
        del _at(cert, path[:-1])[path[-1]]
        return name, kind, path, json.dumps(cert)
    if kind == "non-rational":
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(cert, p), str)]))
        value = draw(NON_RATIONAL.filter(lambda v: v != _at(cert, path)))
    elif kind == "wrong type":
        path = draw(st.sampled_from(paths))
        old = _at(cert, path)
        value = draw(ANY_JSON.filter(lambda v: type(v) is not type(old)))
    else:
        path = draw(st.sampled_from(paths))
        value = _PLACEHOLDER
    if not path:
        cert = value
    else:
        _at(cert, path[:-1])[path[-1]] = value
    text = json.dumps(cert)
    if kind == "deep nesting":
        depth = draw(st.integers(2, 100_000))
        text = text.replace(json.dumps(_PLACEHOLDER), "[" * depth + "]" * depth)
    return name, kind, path, text


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("certificate-fuzz") / "c.cert.json"


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_verify_rejects_malformed_certificates(cert_path, data):
    """A structurally broken certificate never verifies and never raises:
    malformed params, inputs or fields exit 2 (3 past a cap) with one JSON
    error line; a well-formed certificate whose stored parts differ from
    the recomputed ones exits 1 with the paths on stderr. Removing
    toolVersion is the one change that still verifies."""
    name, kind, path, text = data.draw(malformed_certificate_text())
    cert_path.write_text(text, encoding="utf-8")
    code, out, err = run_in_process(["verify", str(cert_path)])
    where = (name, kind, path)
    assert "Traceback" not in err, where
    if (kind, path) == ("missing key", ("toolVersion",)):
        assert code == 0 and json.loads(out)["verified"] is True, where
    elif code == 1:
        assert json.loads(out)["verified"] is False and err, where
    else:
        assert code in (2, 3), (where, code, out, err)
        assert out == "" and json.loads(err)["error"], where
