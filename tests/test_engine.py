import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limprof import engine
from limprof.engine import (
    _feasible_blocks,
    collapse,
    matrix_from_json,
    matrix_to_json,
    merge_columns,
    multiplicity,
    profile,
    refute_interval,
    sample_profile,
    separation_radius,
)
from limprof.errors import (
    DuplicateColumnsError,
    LimprofError,
    ShapeError,
    TooFewRowsError,
    TooLargeError,
    ZeroDirectionError,
)
from limprof.kernel import RatMatrix, integer_tuples, integer_vectors, normalize_primitive, vec
from limprof.sequences import InfinitudeRelation, combine, step_sequence

from kernel_oracle import left_mul_vec, matmul
from profile_oracle import (
    collapse_oracle,
    feasible_blocks,
    profile_by_census,
    profile_by_patterns,
    profile_from_json,
    profile_oracle,
    refute_oracle,
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
    alpha = _feasible_blocks(integer_vectors(M23.columns()), [(0, 1), (2,)])
    assert alpha is not None
    # within-block equality and cross-block distinctness
    row = left_mul_vec(M23, alpha)
    assert row[0] == row[1] != row[2]
    assert _feasible_blocks(integer_vectors(M23.columns()), [(0, 1, 2)]) is None
    single = RatMatrix.from_rows([[1, 2]])
    alpha = _feasible_blocks(integer_vectors(single.columns()), [(0,), (1,)])
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
    again = profile_from_json(prof.to_json())
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
    row = left_mul_vec(RatMatrix.from_rows([[1, 1], [2, 3]]), alpha)
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
    combo = left_mul_vec(m, alpha)
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
        assert profile(matmul(gm, M23)).achieved == profile(M23).achieved


# (rows, entry span, collinear columns, column count or None for 1..6)
CENSUS_SHAPES = ([(2, 3, False, None)] * 30 + [(2, 50, False, None)] * 20
                 + [(2, 3, True, None)] * 10 + [(2, 50, True, None)] * 10
                 + [(2, 3, False, 1), (2, 50, False, 1), (1, 3, False, 1)]
                 + [(1, 3, False, None)] * 5 + [(1, 50, False, None)] * 5)


def test_census_matches_pattern_enumeration():
    """The profile of at most two rows, read from the direction census,
    agrees with the full pattern oracle and with the pair census oracle,
    on general and collinear columns, one column, and one row."""
    rng = random.Random(13)
    for rows, span, on_line, n_cols in CENSUS_SHAPES:
        n_cols = n_cols or rng.randint(1, 6)
        if on_line:
            base, step = (rng.randint(-span, span), rng.randint(-span, span)), (0, 0)
            while not any(step):
                step = (rng.randint(-3, 3), rng.randint(-3, 3))
        cols = set()
        while len(cols) < n_cols:
            if on_line:
                t = rng.randint(-span, span)
                cols.add((base[0] + t * step[0], base[1] + t * step[1]))
            else:
                cols.add(tuple(rng.randint(-span, span) for _ in range(rows)))
        cols = sorted(cols)
        m = RatMatrix.from_rows([[c[i] for c in cols] for i in range(rows)])
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


def sample_profile_on_fractions(m, max_norm, extra=()):
    """The sampling walk with every grid tuple turned into Fractions and
    counted by ``multiplicity``, as sample_profile did before it counted
    grid tuples on the ints."""
    witnesses = {}
    for a in [*integer_tuples(m.rows, max_shell=max_norm), *extra]:
        a = vec(a)
        if any(a) and (mu := multiplicity(m, a)) not in witnesses:
            witnesses[mu] = normalize_primitive(a)
    return tuple(sorted(witnesses)), witnesses


def test_sample_profile_matches_the_fraction_walk():
    rng = random.Random(16)
    for rows, n_cols, max_norm in [(1, 3, 4), (2, 5, 2), (3, 4, 2), (4, 6, 1), (9, 1, 1)]:
        cols = set()
        while len(cols) < n_cols:
            cols.add(tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                           for _ in range(rows)))
        m = RatMatrix.from_rows([[c[i] for c in sorted(cols)] for i in range(rows)])
        extra = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rows))
                 for _ in range(4)] + [(0,) * rows]
        sampled = sample_profile(m, max_norm=max_norm, extra=extra)
        assert (sampled.achieved, sampled.witnesses) == sample_profile_on_fractions(
            m, max_norm, extra)


def test_sample_profile_counts_the_extra_rows():
    """Past an empty grid (max-norm 0) only the extra rows are counted, each
    scaled to its least integer multiple."""
    m = RatMatrix.from_rows([[0, 1, 2], [0, 1, 1]])
    sampled = sample_profile(m, max_norm=0, extra=[(Fraction(1, 2), Fraction(-1, 2)), (0, 0)])
    assert sampled.achieved == (2,)
    assert sampled.witnesses == {2: (Fraction(1), Fraction(-1))}
    with pytest.raises(ShapeError):
        sample_profile(m, max_norm=0, extra=[(1, 2, 3)])


def test_pattern_witnesses_match_fraction_oracle():
    """The integer witness search must reproduce every witness of the
    Fraction oracles on rational matrices."""
    rng = random.Random(15)
    entries = [Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3, 5)]
    matrices = []
    for _ in range(25):
        rows, n_cols = rng.randint(2, 4), rng.randint(2, 6)
        cols = sorted({tuple(rng.choice(entries) for _ in range(rows)) for _ in range(n_cols)})
        matrices.append(RatMatrix.from_rows([[c[i] for c in cols] for i in range(rows)]))
    assert [profile_oracle(m) for m in matrices] == [profile(m) for m in matrices]


@st.composite
def matrices_and_blocks(draw):
    """An integer or rational matrix with 1-4 rows and 1-7 columns, repeated
    columns allowed, and a random partition of its columns into blocks,
    each block in increasing order and the blocks by first column."""
    rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    entry = st.integers(-3, 3) if draw(st.booleans()) else st.fractions(
        min_value=-3, max_value=3, max_denominator=4)
    m = RatMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                                          min_size=rows, max_size=rows)))
    labels = draw(st.lists(st.integers(0, n_cols - 1), min_size=n_cols, max_size=n_cols))
    blocks: dict[int, list[int]] = {}
    for j, b in enumerate(labels):
        blocks.setdefault(b, []).append(j)
    return m, list(blocks.values())


@given(matrices_and_blocks())
@settings(max_examples=150, deadline=None)
def test_feasible_blocks_matches_fraction_oracle(case):
    """Same witness, or None for the same infeasible partitions."""
    m, blocks = case
    fast = _feasible_blocks(integer_vectors(m.columns()), blocks)
    assert fast == feasible_blocks(m.columns(), blocks)
    if fast is not None:
        values = left_mul_vec(m, fast)
        assert all(len({values[j] for j in b}) == 1 for b in blocks)
        assert len({values[b[0]] for b in blocks}) == len(blocks)


def _random_matrix(rng, rows, n_cols, values):
    cols = set()
    while len(cols) < n_cols:
        cols.add(tuple(rng.choice(values) for _ in range(rows)))
    cols = sorted(cols, key=lambda c: rng.random())
    return RatMatrix.from_rows([[c[i] for c in cols] for i in range(rows)])


@pytest.mark.parametrize("values", [(-1, 0, 1), tuple(range(-50, 51))],
                         ids=["sign", "wide"])
def test_profile_matches_oracle(values):
    """profile gives the oracles' achieved counts and witnesses: Bell
    enumeration with the lexicographic rule for three or more rows, the pair
    census for at most two."""
    rng = random.Random(16)
    for _ in range(150):
        rows = rng.randint(1, 4)
        n_cols = rng.randint(1, min(7, len(values) ** rows))
        m = _random_matrix(rng, rows, n_cols, values)
        assert profile(m).to_json() == profile_oracle(m).to_json(), m.entries


# entries -4..4 over denominators 1, 2, 3 and 6
SMALL_RATIONALS = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3, 6)})


@st.composite
def collapse_cases(draw):
    """A 1-4 row matrix with 1-7 columns (repeats allowed), m.rows column
    indices when there are that many columns, and an interval (n, d) that
    refute admits (d + 2 <= rows) unless there is one row."""
    rows, n_cols = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    entry = st.sampled_from(SMALL_RATIONALS)
    m = RatMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols),
                                          min_size=rows, max_size=rows)))
    chosen = draw(st.lists(st.integers(0, n_cols - 1), min_size=rows, max_size=rows,
                           unique=True)) if n_cols >= rows else None
    return m, chosen, draw(st.integers(2, 6)), draw(st.integers(0, max(rows - 2, 0)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LimprofError as e:
        return type(e)


@given(collapse_cases())
@settings(max_examples=300, deadline=None)
def test_collapse_and_refute_match_fraction_oracle(case):
    """The integer collapse and refute give the Fraction oracles' alpha,
    gamma and multiplicity, and fail with the same error where they fail."""
    m, chosen, n, d = case
    if chosen is not None:
        got = collapse(m, chosen)
        assert got == collapse_oracle(m, chosen)
        alpha, gamma = got
        values = left_mul_vec(m, alpha)
        assert {values[j] for j in chosen} == {gamma}
        assert multiplicity(m, alpha) == len(set(values))
    assert _outcome(refute_interval, m, n, d) == _outcome(refute_oracle, m, n, d)


@pytest.mark.parametrize("values", [(-1, 0, 1), tuple(range(-50, 51))],
                         ids=["sign", "wide"])
def test_two_row_profile_matches_census_at_workload_sizes(values):
    """Two-row profiles past the oracle tests' seven columns, where many
    directions share a count and the first one in the direction census
    gives the witness: 8-12 columns (at most 9 distinct sign columns)."""
    rng = random.Random(18)
    for _ in range(40):
        m = _random_matrix(rng, 2, rng.randint(8, min(12, len(values) ** 2)), values)
        assert profile(m).to_json() == profile_by_census(m).to_json(), m.entries


def test_wide_refute_matches_fraction_oracle():
    """Past PROFILE_CAP the generic branch must give all 13-40 columns
    distinct values, and finds the oracle's direction off every pairwise
    difference."""
    rng = random.Random(19)
    for rows, n_cols in [(r, c) for r in (2, 3) for c in (13, 26, 40)]:
        m = _random_matrix(rng, rows, n_cols, range(-10, 11))
        n, d = rng.randint(2, 12), rng.randint(0, rows - 2)
        got = refute_interval(m, n, d)
        assert got == refute_oracle(m, n, d), m.entries
        assert got.multiplicity == m.cols


def test_one_point_search_and_one_nullspace_per_witness(monkeypatch):
    """The benchmark's tracer counts the kernel calls it wraps under these
    engine names; a witness search routed around them would read 0."""
    calls = {"generic_point": 0, "nullspace": 0}

    def counted(name):
        inner = getattr(engine, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(engine, name, counted(name))
    # the last row is constant, so alpha = (0, 0, 1) collapses every column
    m = RatMatrix.from_rows([[0, 1, 0, 2, -1], [0, 0, 1, 3, 1], [1, 1, 1, 1, 1]])
    prof = profile(m)
    assert prof.achieved == (1, 3, 4, 5)
    assert calls == {"generic_point": 3, "nullspace": 4}


@pytest.mark.parametrize("run", [
    profile,
    lambda m: refute_interval(m, 2, 0),  # 4 columns > n+d: the separating branch
    lambda m: refute_interval(m, 4, 1),  # 4 columns <= n+d: the collapse branch
    lambda m: collapse(m, [0, 2, 3]),
], ids=["profile", "refute-separate", "refute-collapse", "collapse"])
def test_each_entry_point_scales_the_matrix_once(run, monkeypatch):
    """One call scales M to its integer columns once, and every later step
    reads those columns."""
    calls = []
    inner = engine.integer_vectors

    def counted(vectors):
        calls.append(len(vectors))
        return inner(vectors)

    monkeypatch.setattr(engine, "integer_vectors", counted)
    m = RatMatrix.from_rows([["1/2", 0, 1, "2/3"], [0, 1, "-1/3", 1], [1, 1, 2, "5/6"]])
    run(m)
    assert calls == [m.cols]
