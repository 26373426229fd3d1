import json
from fractions import Fraction
from pathlib import Path

import pytest

from limprof.builders import (
    _acceptance_test,
    _partitions_into,
    generic_vectors,
    independent_family,
    interval_space,
    nonconvergent_span,
    odd_space,
    polygon_space,
    spaceable_rows,
    value_ladder,
)
from limprof.engine import (
    multiplicity,
    profile,
    refute_interval,
)
from limprof.errors import TooLargeError
from limprof.kernel import RatMatrix, integer_tuples, rank_of_vectors, vec
from limprof.sequences import combine
from profile_oracle import profile_by_patterns, set_partitions


def test_generic_vectors_small():
    fam = generic_vectors(2, 1)
    assert fam.vectors[0] == (Fraction(0), Fraction(0))
    assert len(fam.vectors) == 3
    prof = profile(fam.matrix())
    assert prof.min() >= 2
    assert prof.achieved == (2, 3)


def test_generic_vectors_degenerate_cases():
    fam = generic_vectors(1, 0)
    assert fam.vectors == ((Fraction(0),),)
    assert profile(fam.matrix()).achieved == (1,)
    fam = generic_vectors(2, 0)
    assert len(fam.vectors) == 2
    assert profile(fam.matrix()).achieved == (2,)


def test_generic_vectors_profile_minimum():
    for n, d in [(3, 1), (4, 1), (3, 2)]:
        fam = generic_vectors(n, d)
        assert len(fam.vectors) == n + d
        assert profile(fam.matrix()).min() >= n


def test_generic_vectors_cap():
    with pytest.raises(TooLargeError):
        generic_vectors(8, 2)


@pytest.mark.parametrize("k", range(1, 9))
def test_partitions_into_matches_filtered_bell_enumeration(k):
    for blocks in range(1, k + 1):
        expected = [a for a in set_partitions(k) if max(a) + 1 == blocks]
        assert list(_partitions_into(k, blocks)) == expected


def candidate_ok_oracle(vectors, cand, n, d):
    """Slow reference for the generic-vector acceptance test: every set
    partition of prefix + cand into at most n-1 blocks in which cand is not
    a singleton must have within-block differences of rank
    min(#differences, d+1), in Fraction arithmetic."""
    if cand in vectors:
        return False
    k = len(vectors)
    ext = vectors + [cand]
    for assignment in set_partitions(k + 1):
        if max(assignment) + 1 > n - 1 or assignment[k] not in assignment[:k]:
            continue
        leads = {}
        diffs = []
        for v, b in zip(ext, assignment):
            if b in leads:
                diffs.append(tuple(x - y for x, y in zip(v, leads[b])))
            else:
                leads[b] = v
        if rank_of_vectors(diffs) != min(len(diffs), d + 1):
            return False
    return True


@pytest.mark.parametrize("n,d", [(n, s - n) for s in range(1, 7)
                                 for n in range(1, s + 1)])
def test_generic_vectors_acceptance_matches_partition_oracle(n, d):
    """The per-step hyperplane test and the partition oracle make the same
    decision on every candidate the greedy search visits."""
    prefix = [(0,) * (d + 1)]
    while len(prefix) < n + d:
        accepts = _acceptance_test(prefix, n, d)
        for t in integer_tuples(d + 1):
            decision = accepts(t)
            assert decision == candidate_ok_oracle(
                [vec(p) for p in prefix], vec(t), n, d), (prefix, t)
            if decision:
                prefix.append(t)
                break
    assert generic_vectors(n, d).vectors == tuple(vec(p) for p in prefix)


GENERIC_VECTORS = json.loads(
    (Path(__file__).parent / "data" / "generic_vectors.json").read_text())


@pytest.mark.parametrize("case", GENERIC_VECTORS,
                         ids=lambda c: f"{c['n']}-{c['d']}")
def test_generic_vectors_match_stored(case):
    """Vectors written by the partition-enumeration builder, for every
    n+d <= 7 except (4, 3), which it did not finish."""
    fam = generic_vectors(case["n"], case["d"])
    assert fam.vectors == tuple(vec(v) for v in case["vectors"])


def test_interval_space_examples():
    m = interval_space(2, 0)
    assert m.rows == 1 and m.cols == 2
    assert profile(m).achieved == (2,)
    m = interval_space(2, 1)
    assert m.rows == 2 and m.cols == 3
    assert profile(m).achieved == (2, 3)
    m = interval_space(3, 2)
    assert m.rows == 3 and m.cols == 5
    prof = profile(m)
    assert set(prof.achieved) <= {3, 4, 5}
    assert prof.min() == 3 and prof.max() == 5


def test_interval_space_rows_independent():
    m = interval_space(3, 2)
    assert m.rank() == m.rows


def test_interval_space_refutable_with_extra_row():
    base = interval_space(2, 1)  # 2 x 3
    extended = RatMatrix.from_rows(
        [list(r) for r in base.entries] + [[0, 0, 7]]
    )
    w = refute_interval(extended, 2, 1)
    assert w.escapes


def test_odd_space_small_profiles():
    assert profile(odd_space(1)).achieved == (3,)
    assert profile(odd_space(2)).achieved == (3, 5, 7, 9)
    assert multiplicity(odd_space(2), vec([1, 1])) == 5


def test_odd_space_value_sets():
    m = odd_space(2)
    for alpha in ([1, 0], [2, 3], [5, -7], [0, 1]):
        a = vec(alpha)
        values = {
            sum((x * c for x, c in zip(a, m.col(j))), Fraction(0))
            for j in range(m.cols)
        }
        assert Fraction(0) in values
        assert values == {-v for v in values}
        assert len(values) % 2 == 1 and len(values) >= 3


def test_odd_space_cap():
    with pytest.raises(TooLargeError):
        odd_space(7)


def test_polygon_exact_profiles():
    sq = polygon_space(2)
    assert sq.mode == "exact"
    assert sq.counts == (2, 3, 4)
    assert profile(sq.matrix).achieved == (2, 3, 4)
    hexagon = polygon_space(3)
    assert hexagon.mode == "exact"
    assert hexagon.counts == (3, 4, 6)


def test_polygon_exact_abscissas_distinct():
    for n in (2, 3):
        m = polygon_space(n).matrix
        xs = list(m.row(0))
        assert len(set(xs)) == len(xs)


def test_polygon_approximate_profiles():
    for n in (4, 5, 6):
        poly = polygon_space(n)
        assert poly.mode == "approximate"
        assert poly.counts == tuple(sorted({n, n + 1, 2 * n}))
        assert poly.tolerance == 1e-9
        assert len(poly.vertices) == 2 * n


def test_independent_family_examples():
    fam = independent_family(1, split=2)
    assert fam.atoms == ((0,), (1,))
    assert fam.piece(0, 1) == (1,)
    fam = independent_family(2, split=2)
    assert len(fam.atoms) == 4
    for e1 in (0, 1):
        for e2 in (0, 1):
            hits = set(fam.piece(0, e1)) & set(fam.piece(1, e2))
            assert len(hits) == 1
    fam = independent_family(2, split=3)
    assert len(fam.atoms) == 9


def test_nonconvergent_span():
    m = nonconvergent_span(1)
    assert [list(r) for r in m.entries] == [[0, 1]]
    m2 = nonconvergent_span(2)
    assert multiplicity(m2, vec([1, 1])) == 3
    m3 = nonconvergent_span(3)
    prof = profile_by_patterns(m3)
    assert prof.min() >= 2


def test_value_ladder_flavors():
    assert value_ladder(2) == (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    dense = value_ladder(3, flavor="rational-dense")
    assert dense == (
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
    )


def test_spaceable_rows_single():
    fam = spaceable_rows(1, 2)
    (row,) = fam.rows
    assert set(row.values) == {
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(0),
    }


def test_spaceable_rows_disjoint_supports():
    fam = spaceable_rows(3, 4)
    supports = [
        {a.id for a, v in zip(r.partition.atoms, r.values) if v != 0}
        for r in fam.rows
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not supports[i] & supports[j]


def test_spaceable_combination_value_set():
    fam = spaceable_rows(2, 5)
    z = fam.combination([1, 1])
    expected = set(fam.ladder) | {Fraction(0)}
    assert set(z.values) == expected
    assert len(expected) == 7


def test_spaceable_combination_sup_is_max_coefficient_times_top():
    fam = spaceable_rows(3, 8)
    for alpha in ([1, 1, 1], [1, Fraction(-1), Fraction(1, 2)], [Fraction(1, 3), 1, 0]):
        z = fam.combination([Fraction(a) for a in alpha])
        top = max(abs(Fraction(a)) for a in alpha) * fam.ladder[0]
        assert z.sup_value() == top


def test_spaceable_rational_dense_values():
    fam = spaceable_rows(1, 3, flavor="rational-dense")
    (row,) = fam.rows
    assert set(row.values) == {
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
    }
