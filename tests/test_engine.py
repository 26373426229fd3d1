import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limprof.engine import (
    _feasible_blocks,
    _integer_columns,
    collapse,
    matrix_from_json,
    matrix_to_json,
    merge_columns,
    multiplicity,
    nesting_check,
    profile,
    refute_interval,
    sample_profile,
    separation_radius,
)
from limprof.errors import (
    DuplicateColumnsError,
    ShapeError,
    TooFewRowsError,
    TooLargeError,
    ZeroDirectionError,
)
from limprof.kernel import RatMatrix, vec
from limprof.sequences import (
    InfinitudeRelation,
    SymbolicPartition,
    combine,
    step_sequence,
)
from profile_oracle import (
    profile_by_census,
    profile_by_patterns,
    profile_oracle,
    set_partitions,
)

M23 = RatMatrix.from_rows([[0, 1, 0], [0, 0, 1]])


def test_multiplicity_examples():
    assert multiplicity(M23, vec([1, 1])) == 2
    assert multiplicity(RatMatrix.from_rows([[1, 2, 3]]), vec([5])) == 3
    assert multiplicity(RatMatrix.from_rows([[0, 1], [0, 1]]), vec([1, -1])) == 1


def test_multiplicity_errors():
    with pytest.raises(ZeroDirectionError):
        multiplicity(M23, vec([0, 0]))
    with pytest.raises(ShapeError):
        multiplicity(M23, vec([1]))


def test_set_partitions_bell_counts():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)]:
        assert sum(1 for _ in set_partitions(n)) == bell


def test_set_partitions_order():
    parts = list(set_partitions(3))
    assert parts[0] == (0, 0, 0)
    assert parts[-1] == (0, 1, 2)
    assert len(set(parts)) == len(parts)


def test_pattern_feasible_examples():
    alpha = _feasible_blocks(_integer_columns(M23), [(0, 1), (2,)])
    assert alpha is not None
    # within-block equality and cross-block distinctness
    row = M23.left_mul_vec(alpha)
    assert row[0] == row[1] != row[2]
    assert _feasible_blocks(_integer_columns(M23), [(0, 1, 2)]) is None
    single = RatMatrix.from_rows([[1, 2]])
    alpha = _feasible_blocks(_integer_columns(single), [(0,), (1,)])
    assert alpha is not None


def test_profile_examples():
    assert profile(M23).achieved == (2, 3)
    assert profile(RatMatrix.from_rows([[1, 2, 3]])).achieved == (3,)


def test_profile_witnesses_are_exact():
    prof = profile_by_patterns(M23)
    for count, alpha in prof.witnesses.items():
        assert multiplicity(M23, alpha) == count


def test_profile_requires_canonical_columns():
    with pytest.raises(DuplicateColumnsError):
        profile(RatMatrix.from_rows([[1, 1], [2, 2]]))


def test_profile_cap():
    wide = RatMatrix.from_rows([[i for i in range(13)]])
    with pytest.raises(TooLargeError):
        profile(wide)


def test_profile_json_roundtrip():
    prof = profile(M23)
    from limprof.engine import MultiplicityProfile

    again = MultiplicityProfile.from_json(prof.to_json())
    assert again.achieved == prof.achieved
    assert again.witnesses == prof.witnesses


def test_matrix_json_roundtrip():
    data = matrix_to_json(M23)
    assert data == {
        "rows": 2,
        "cols": 3,
        "entries": [["0", "1", "0"], ["0", "0", "1"]],
    }
    assert matrix_from_json(data).entries == M23.entries


def test_merge_columns():
    m = RatMatrix.from_rows([[1, 2, 1], [3, 4, 3]])
    merged, groups = merge_columns(m)
    assert merged.cols == 2
    assert groups == ((0, 2), (1,))
    m2, groups2 = merge_columns(M23)
    assert m2.cols == 3 and groups2 == ((0,), (1,), (2,))


def test_collapse_examples():
    alpha, gamma = collapse(RatMatrix.from_rows([[1, 2, 3], [4, 5, 7]]), (0, 1))
    assert alpha == (Fraction(1), Fraction(-1)) and gamma == Fraction(-3)
    alpha, gamma = collapse(RatMatrix.from_rows([[1, 1], [2, 3]]), (0, 1))
    row = RatMatrix.from_rows([[1, 1], [2, 3]]).left_mul_vec(alpha)
    assert row[0] == row[1] == gamma
    alpha, gamma = collapse(RatMatrix.from_rows([[0, 0], [1, 1]]), (0, 1))
    assert alpha == (Fraction(1), Fraction(0)) and gamma == Fraction(0)


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=2,
        max_size=3,
    )
)
@settings(max_examples=80, deadline=None)
def test_collapse_postcondition(rows):
    m = RatMatrix.from_rows(rows)
    cols = tuple(range(m.rows))
    alpha, gamma = collapse(m, cols)
    combo = m.left_mul_vec(alpha)
    assert all(combo[j] == gamma for j in cols)
    assert multiplicity(m, alpha) <= m.cols - m.rows + 1


def test_refute_examples():
    w = refute_interval(RatMatrix.from_rows([[0, 1], [1, 0]]), 2, 0)
    assert w.multiplicity == 1 and w.escapes
    w = refute_interval(RatMatrix.from_rows([[0, 1, 2], [0, 2, 1]]), 2, 0)
    assert w.multiplicity == 3 and w.escapes
    m = RatMatrix.from_rows([[0, 1, 2, 3], [0, 1, 4, 9], [0, 1, 8, 27]])
    w = refute_interval(m, 3, 1)
    assert w.multiplicity <= 2 and w.escapes


def test_refute_too_few_rows():
    with pytest.raises(TooFewRowsError):
        refute_interval(M23, 2, 1)  # needs d+2 = 3 rows, has 2


def test_nesting_check():
    left = SymbolicPartition.from_ids(["S1", "S2"])
    right = SymbolicPartition.from_ids(["T1", "T2", "T3"])
    nested = InfinitudeRelation(left, right, frozenset({(0, 0), (0, 1), (1, 2)}))
    verdict = nesting_check(nested)
    assert verdict.nested and not verdict.violations
    two_left = SymbolicPartition.from_ids(["S1", "S2"])
    one_right = SymbolicPartition.from_ids(["T1"])
    overlap = InfinitudeRelation(two_left, one_right, frozenset({(0, 0), (1, 0)}))
    verdict = nesting_check(overlap)
    assert not verdict.nested
    assert verdict.violations == ((0, (0, 1)),)  # right atom 0 meets both lefts
    full = InfinitudeRelation.full(left, right)
    verdict = nesting_check(full)
    assert not verdict.nested
    assert {v[0] for v in verdict.violations} == {0, 1, 2}


def test_separation_radius():
    x = step_sequence([("a", 0), ("b", 1), ("c", 5)])
    assert separation_radius(x) == Fraction(1, 2)
    assert separation_radius(step_sequence([("a", 7)])) is None


def test_separation_guarantee_example():
    x = step_sequence([("a", 0), ("b", 10)])
    y = step_sequence([("c", 0), ("d", 1)])
    assert y.sup_value() < separation_radius(x)
    z = combine([1, 1], [x, y], InfinitudeRelation.full(x.partition, y.partition))
    assert set(z.values) == {Fraction(v) for v in (0, 1, 10, 11)}


@given(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2).filter(
        lambda a: any(a)
    ),
    st.integers(min_value=2, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_multiplicity_projective_invariance(alpha, c):
    a = vec(alpha)
    ca = vec([c * x for x in alpha])
    assert multiplicity(M23, a) == multiplicity(M23, ca)


def test_profile_column_permutation_invariance():
    rng = random.Random(11)
    for _ in range(20):
        cols = set()
        while len(cols) < 4:
            cols.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        cols = list(cols)
        m = RatMatrix.from_rows(
            [[c[0] for c in cols], [c[1] for c in cols]]
        )
        perm = cols[::-1]
        mp = RatMatrix.from_rows(
            [[c[0] for c in perm], [c[1] for c in perm]]
        )
        assert profile(m).achieved == profile(mp).achieved


def test_profile_basis_change_invariance():
    rng = random.Random(12)
    trials = 0
    while trials < 20:
        g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if g[0][0] * g[1][1] - g[0][1] * g[1][0] == 0:
            continue
        trials += 1
        gm = RatMatrix.from_rows(g)
        assert profile(gm.matmul(M23)).achieved == profile(M23).achieved


def test_census_matches_pattern_enumeration():
    """The two-row fast path must agree with the full pattern oracle."""
    rng = random.Random(13)
    for _ in range(30):
        n_cols = rng.randint(1, 6)
        cols = set()
        while len(cols) < n_cols:
            cols.add((rng.randint(-3, 3), rng.randint(-3, 3)))
        cols = sorted(cols)
        m = RatMatrix.from_rows(
            [[c[0] for c in cols], [c[1] for c in cols]]
        )
        by_census = profile_by_census(m)
        by_patterns = profile_by_patterns(m)
        assert by_census.achieved == by_patterns.achieved
        for count, alpha in by_census.witnesses.items():
            assert multiplicity(m, alpha) == count
        assert profile(m) == by_census


def test_sample_profile_is_lower_bound():
    rng = random.Random(14)
    for _ in range(10):
        rows = rng.randint(1, 3)
        n_cols = rng.randint(1, 5)
        cols = set()
        while len(cols) < n_cols:
            cols.add(tuple(rng.randint(-3, 3) for _ in range(rows)))
        cols = sorted(cols)
        m = RatMatrix.from_rows([[c[i] for c in cols] for i in range(rows)])
        exact = profile_by_patterns(m)
        sampled = sample_profile(m, max_norm=3)
        assert set(sampled.achieved) <= set(exact.achieved)
        assert m.cols in sampled.achieved  # generic direction always sampled


def test_pattern_witnesses_match_fraction_oracle(monkeypatch):
    """Integer elimination must reproduce every witness of Fraction elimination."""
    from test_kernel import rref_oracle

    from limprof import kernel

    rng = random.Random(15)
    entries = [Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3, 5)]
    matrices = []
    for _ in range(25):
        rows, n_cols = rng.randint(2, 4), rng.randint(2, 6)
        cols = sorted({tuple(rng.choice(entries) for _ in range(rows)) for _ in range(n_cols)})
        matrices.append(RatMatrix.from_rows([[c[i] for c in cols] for i in range(rows)]))
    fast = [profile(m) for m in matrices]
    monkeypatch.setattr(kernel, "_rref", rref_oracle)
    assert [profile(m) for m in matrices] == fast


def _random_matrix(rng, rows, n_cols, values):
    cols = set()
    while len(cols) < n_cols:
        cols.add(tuple(rng.choice(values) for _ in range(rows)))
    cols = sorted(cols, key=lambda c: rng.random())
    return RatMatrix.from_rows([[c[i] for c in cols] for i in range(rows)])


@pytest.mark.parametrize("values", [(-1, 0, 1), tuple(range(-50, 51))],
                         ids=["sign", "wide"])
def test_profile_matches_oracle(values):
    """The walk gives the oracles' achieved counts and witnesses: Bell
    enumeration with the lexicographic rule for three or more rows, the pair
    census for at most two."""
    rng = random.Random(16)
    for _ in range(150):
        rows = rng.randint(1, 4)
        n_cols = rng.randint(1, min(7, len(values) ** rows))
        m = _random_matrix(rng, rows, n_cols, values)
        assert profile(m).to_json() == profile_oracle(m).to_json(), m.entries
