import dataclasses
import json
import math
import operator
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limprof import certificates
from limprof.builders import odd_space
from limprof.certificates import (
    Certificate,
    build_escape_certificate,
    build_independent_certificate,
    build_interval_certificate,
    build_odd_certificate,
    build_polygon_certificate,
    build_refute_certificate,
    build_spaceable_certificate,
    canonical_json,
    verify_certificate,
)
from limprof.engine import multiplicity
from limprof.errors import LimprofError
from limprof.kernel import RatMatrix, vec
from limprof.lab import estimate_clusters, gen_rich
from limprof.sequences import InfinitudeRelation, step_sequence


def roundtrip(cert: Certificate) -> Certificate:
    return Certificate.from_json(json.loads(cert.dumps()))


def test_interval_certificate_verifies():
    cert = build_interval_certificate(2, 1)
    assert cert.holds
    assert cert.verification["profile"]["achieved"] == [2, 3]
    ok, mismatches = verify_certificate(roundtrip(cert))
    assert ok and not mismatches


def test_odd_certificate_small_and_sign_matrix():
    small = build_odd_certificate(2)
    assert small.holds
    assert small.verification["counts"] == [3, 5, 7, 9]
    assert small.verification["method"] == "exact-profile"
    ok, _ = verify_certificate(roundtrip(small))
    assert ok
    big = build_odd_certificate(3)
    assert big.holds
    assert big.verification["method"] == "sign-matrix"
    assert big.verification["counts"] == list(range(3, 28, 2))
    ok, _ = verify_certificate(roundtrip(big))
    assert ok


@pytest.mark.parametrize("k", [3, 4])
def test_odd_counts_cover_the_sign_direction_census(k):
    """The sign-direction census the odd certificate used to store: the count
    of every nonzero direction in {-1, 0, 1}^k is one of its counts."""
    cert = build_odd_certificate(k)
    mat = odd_space(k)
    census = {multiplicity(mat, vec(signs))
              for signs in product((-1, 0, 1), repeat=k) if any(signs)}
    assert census <= set(cert.verification["counts"])


@pytest.mark.parametrize("k", range(1, 7))
def test_odd_witness_counts_match_fraction_oracle(k):
    """Each witness's count, recomputed in Fraction arithmetic over the sign
    vectors themselves, is its key; the keys are every odd count up to 3^k."""
    cert = build_odd_certificate(k)
    assert cert.holds
    signs = list(product((-1, 0, 1), repeat=k))
    for count, alpha in cert.witnesses.items():
        a = [Fraction(x) for x in alpha]
        assert len({sum(map(operator.mul, a, s), Fraction(0)) for s in signs}) == int(count)
    assert sorted(map(int, cert.witnesses)) == list(range(3, 3**k + 1, 2))
    assert cert.verification["counts"] == list(range(3, 3**k + 1, 2))


def test_polygon_certificates_both_modes():
    exact = build_polygon_certificate(3)
    assert exact.mode == "exact" and exact.holds
    assert exact.verification["counts"] == [3, 4, 6]
    ok, _ = verify_certificate(roundtrip(exact))
    assert ok
    approx = build_polygon_certificate(5)
    assert approx.mode == "approximate" and approx.holds
    assert approx.verification["counts"] == [5, 6, 10]
    ok, _ = verify_certificate(roundtrip(approx))
    assert ok


def test_independent_certificate():
    cert = build_independent_certificate(3, 2)
    assert cert.holds
    assert cert.verification["atomCount"] == 8
    ok, _ = verify_certificate(roundtrip(cert))
    assert ok


def test_independent_certificate_detects_a_repeated_atom(monkeypatch):
    real = certificates.independent_family

    def repeated(k, split):
        fam = real(k, split)
        return dataclasses.replace(fam, atoms=fam.atoms + fam.atoms[:1])

    monkeypatch.setattr(certificates, "independent_family", repeated)
    cert = build_independent_certificate(2, 3)
    assert cert.verification["piecesPartitionUniverse"]
    assert not cert.verification["fullPatternsHitExactlyOneAtom"]
    assert not cert.holds


@pytest.mark.parametrize("n, name", [(5, "approx_direction_census"), (3, "profile")])
def test_polygon_certificate_counts_once(monkeypatch, n, name):
    """The polygon's counts come from the certificate's payload alone."""
    from limprof import builders

    calls = []
    for module in (builders, certificates):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    assert build_polygon_certificate(n).holds
    assert len(calls) == 1


def test_spaceable_certificate():
    cert = build_spaceable_certificate(3, 8)
    assert cert.holds
    assert cert.verification["supValue"] == "1"
    assert cert.verification["disjointSupports"]
    ok, _ = verify_certificate(roundtrip(cert))
    assert ok


def test_spaceable_certificate_dense_flavor_sup():
    cert = build_spaceable_certificate(2, 3, flavor="rational-dense")
    assert cert.holds
    # the dense ladder is not monotone; its top value is 2/3
    assert cert.verification["supValue"] == "2/3"


def test_refute_certificate():
    m = RatMatrix.from_rows([[0, 1], [1, 0]])
    cert = build_refute_certificate(m, 2, 0)
    assert cert.holds
    assert cert.verification["multiplicity"] == 1
    ok, _ = verify_certificate(roundtrip(cert))
    assert ok


def test_escape_certificate():
    x = step_sequence([("a", 0), ("b", 1)])
    y = step_sequence((f"t{j}", j) for j in range(5))
    rel = InfinitudeRelation.nested(x.partition, y.partition, [0, 0, 0, 1, 1])
    cert = build_escape_certificate(x, y, rel, [2, 5])
    assert cert is not None and cert.holds
    assert cert.verification["recombinationMatches"]
    ok, _ = verify_certificate(roundtrip(cert))
    assert ok


def test_escape_certificate_not_found():
    x = step_sequence([("a", 0), ("b", 1)])
    y = step_sequence([("c", 0), ("d", 2)])
    rel = InfinitudeRelation(x.partition, y.partition, frozenset({(0, 0), (1, 1)}))
    assert build_escape_certificate(x, y, rel, [1]) is None


def test_tampered_witness_is_located():
    cert = build_interval_certificate(2, 1)
    data = json.loads(cert.dumps())
    data["witnesses"]["2"] = ["9", "9"]
    ok, mismatches = verify_certificate(Certificate.from_json(data))
    assert not ok
    assert any(m.startswith("witnesses.2") for m in mismatches)


def test_tampered_transcript_is_located():
    for k in (2, 3):  # the exact-profile and the sign-matrix branch
        cert = build_odd_certificate(k)
        data = json.loads(cert.dumps())
        data["verification"]["counts"] = [3, 5, 7]
        ok, mismatches = verify_certificate(Certificate.from_json(data))
        assert not ok
        assert any(m.startswith("verification.counts") for m in mismatches)


def test_unknown_claim_rejected():
    cert = build_interval_certificate(2, 0)
    data = json.loads(cert.dumps())
    data["claim"] = "perpetual-motion"
    with pytest.raises(LimprofError):
        verify_certificate(Certificate.from_json(data))


def test_canonical_json_is_stable():
    payload = {"b": [1, 2], "a": {"y": Fraction is not None, "x": 0.5}}
    one = canonical_json(payload)
    two = canonical_json(json.loads(one))
    assert one == two
    assert one.endswith("\n")


def oracle_json(obj) -> str:
    """The stdlib encoding that canonical_json reproduces byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def oracle_outcome(encode, obj):
    try:
        return "text", encode(obj)
    except Exception as exc:  # the oracle's exception type is the contract
        return "raises", type(exc)


class Label(str):
    pass


class Count(int):
    pass


TEXT = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "😀", "\ud800", "a\"b\nc", ""])
FLOATS = st.floats() | st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 5e-324, 1e16, 1.7976931348623157e308])
INTS = st.integers() | st.integers(min_value=2**64, max_value=2**200) | st.integers(
    min_value=-(2**200), max_value=-(2**64))
SCALARS = TEXT | INTS | FLOATS | st.booleans() | st.none()
# Lists of equal-length scalar rows: matrices and lists of pairs.
ROWS = st.integers(1, 4).flatmap(lambda w: st.lists(
    st.lists(SCALARS, min_size=w, max_size=w) | st.tuples(*[SCALARS] * w), min_size=1, max_size=6))
VALUES = st.recursive(
    SCALARS | ROWS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30,
)
# Values json accepts or refuses in its own way: non-str keys (some
# mixed, which json cannot sort), subclasses of str and int, a Fraction.
ODD_KEYS = st.integers() | FLOATS | st.booleans() | st.none() | st.builds(Label, TEXT)
ODD_LEAVES = (st.builds(Fraction, st.integers(), st.integers(1, 9))
              | st.builds(Label, TEXT) | st.builds(Count, INTS))
ODD_VALUES = st.recursive(
    SCALARS | ODD_LEAVES,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(ODD_KEYS | TEXT, inner, max_size=4)),
    max_leaves=20,
)


@given(VALUES)
@example([0.0, -0.0, 0.0])  # equal floats with different text
@example({"rows": [[-0.0, 1], [0.0, 1], [math.nan, True]], "mixed": [1, True, 1.0, None]})
@settings(max_examples=200, deadline=None)
def test_canonical_json_matches_the_stdlib_encoder(obj):
    assert canonical_json(obj) == oracle_json(obj)


@given(ODD_VALUES)
@settings(max_examples=200, deadline=None)
def test_canonical_json_leaves_other_values_to_the_stdlib(obj):
    assert oracle_outcome(canonical_json, obj) == oracle_outcome(oracle_json, obj)


def test_canonical_json_on_cycles_and_deep_nesting():
    cycle: list = []
    cycle.append(cycle)
    for obj in (cycle, {"a": cycle}):
        assert oracle_outcome(canonical_json, obj) == ("raises", ValueError)
    deep: list = []
    for i in range(150):
        deep = [deep, {"k": i}] if i % 2 else {"k": deep}
    assert canonical_json(deep) == oracle_json(deep)
    for _ in range(5000):
        deep = [deep]
    assert oracle_outcome(canonical_json, deep) == oracle_outcome(oracle_json, deep)


def test_canonical_json_reencodes_golden_files_and_cluster_estimates():
    golden = Path(__file__).parent / "data" / "golden"
    for path in sorted(golden.iterdir()):
        text = path.read_text(encoding="utf-8")
        assert canonical_json(json.loads(text)) == text, path.name
    # centers are [float, int] pairs; epsilon and tail are floats
    payload = estimate_clusters(gen_rich(Fraction(7, 9)), 1 << 12).to_json()
    assert canonical_json(payload) == oracle_json(payload)


def test_certificate_dumps_deterministic():
    a = build_interval_certificate(3, 1).dumps()
    b = build_interval_certificate(3, 1).dumps()
    assert a == b


def test_certificates_have_no_timestamps():
    cert = build_polygon_certificate(4)
    text = cert.dumps().lower()
    for needle in ("time", "date", "20250", "20260"):
        assert needle not in text
