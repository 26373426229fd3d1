import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limprof.builders import spaceable_rows
from limprof.errors import BadRelationError, EmptyInputError, ShapeError
from limprof.kernel import rat
from limprof.sequences import (
    InfinitudeRelation,
    StepSequence,
    SymbolicPartition,
    _pair_table,
    canonicalize,
    combine,
    step_sequence,
)


def seq(*pairs):
    return step_sequence(pairs)


def test_partition_validation():
    with pytest.raises(EmptyInputError):
        SymbolicPartition.from_ids([])
    with pytest.raises(ShapeError):
        SymbolicPartition.from_ids(["a", "a"])


def test_canonical_form_requires_distinct_values():
    with pytest.raises(ShapeError):
        StepSequence(SymbolicPartition.from_ids(["a", "b"]), (Fraction(1), Fraction(1)))


def test_canonicalize_merges_equal_values():
    part = SymbolicPartition.from_ids(["a", "b", "c"])
    x = canonicalize(part, [1, 0, 1])
    assert x.values == (Fraction(1), Fraction(0))
    assert x.partition.ids == ("a|c", "b")


def test_accumulation_points_and_sup():
    x = seq(("a", -3), ("b", 1))
    assert x.accumulation_points() == {Fraction(-3), Fraction(1)}
    assert x.sup_value() == Fraction(3)
    assert x.num_atoms == 2


def test_step_sequence_json_roundtrip():
    x = seq(("a", "1/2"), ("b", -2), ("c", 0))
    again = StepSequence.from_json(x.to_json())
    assert again == x


def test_relation_validation():
    left = SymbolicPartition.from_ids(["a", "b"])
    right = SymbolicPartition.from_ids(["c"])
    with pytest.raises(BadRelationError):
        InfinitudeRelation(left, right, frozenset({(0, 0)}))  # b uncovered
    with pytest.raises(BadRelationError):
        InfinitudeRelation(left, right, frozenset({(0, 0), (2, 0)}))
    ok = InfinitudeRelation(left, right, frozenset({(0, 0), (1, 0)}))
    assert ok.pairs == {(0, 0), (1, 0)}


def test_relation_json_roundtrip():
    left = SymbolicPartition.from_ids(["a", "b"])
    right = SymbolicPartition.from_ids(["c", "d", "e"])
    rel = InfinitudeRelation.nested(left, right, [0, 1, 1])
    again = InfinitudeRelation.from_json(rel.to_json())
    assert again == rel


def test_combine_full_relation_all_sums():
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 0), ("d", 10), ("e", 20))
    rel = InfinitudeRelation.full(x.partition, y.partition)
    z = combine([1, 1], [x, y], rel)
    assert set(z.values) == {
        Fraction(v) for v in (0, 10, 20, 1, 11, 21)
    }
    assert z.num_atoms == 6


def test_combine_same_partition_defaults_to_identity():
    x = seq(("a", 0), ("b", 1), ("c", 2))
    z = combine([1, -1], [x, x])
    assert z.num_atoms == 1
    assert z.values == (Fraction(0),)


def test_combine_zero_coefficients_dropped():
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 5), ("d", 7))
    z = combine([0, 2], [x, y])
    assert set(z.values) == {Fraction(10), Fraction(14)}
    zero = combine([0, 0], [x, y])
    assert zero.values == (Fraction(0),)
    assert zero.num_atoms == 1


def test_combine_nested_relation():
    # y's atoms c,d sit inside a; e sits inside b
    x = seq(("a", 0), ("b", 100))
    y = seq(("c", 1), ("d", 2), ("e", 3))
    rel = InfinitudeRelation.nested(x.partition, y.partition, [0, 0, 1])
    z = combine([1, 1], [x, y], rel)
    assert set(z.values) == {Fraction(1), Fraction(2), Fraction(103)}


def test_combine_relation_must_match_sequences():
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 5), ("d", 7))
    other = SymbolicPartition.from_ids(["z", "w"])
    rel = InfinitudeRelation.full(other, y.partition)
    with pytest.raises(BadRelationError):
        combine([1, 1], [x, y], rel)


def test_combine_three_sequences_pairwise_table():
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 0), ("d", 2))
    w = seq(("e", 0), ("f", 4))
    z = combine([1, 1, 1], [x, y, w])  # full by default: all 8 triples
    assert set(z.values) == {Fraction(v) for v in (0, 1, 2, 3, 4, 5, 6, 7)}


def test_combine_transitive_refinement_prunes():
    # x and w share ids, so (x, w) defaults to identity; with y full in
    # between, only triples with equal x/w atoms survive.
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 0), ("d", 2))
    w = seq(("a", 0), ("b", 4))
    z = combine([1, 1, 1], [x, y, w])
    assert set(z.values) == {Fraction(v) for v in (0, 2, 5, 7)}


small_rat = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def random_seq(draw, prefix, max_atoms=4):
    n = draw(st.integers(min_value=1, max_value=max_atoms))
    values = draw(
        st.lists(small_rat, min_size=n, max_size=n, unique=True)
    )
    return step_sequence((f"{prefix}{i}", v) for i, v in enumerate(values))


@given(random_seq("a"), random_seq("b"), small_rat, small_rat)
@settings(max_examples=100, deadline=None)
def test_combine_count_at_most_product(x, y, ca, cb):
    z = combine([ca, cb], [x, y])
    assert 1 <= z.num_atoms <= x.num_atoms * y.num_atoms


@given(random_seq("a"))
@settings(max_examples=50, deadline=None)
def test_combine_identity_scaling(x):
    z = combine([2], [x])
    assert z.num_atoms == x.num_atoms
    assert set(z.values) == {2 * v for v in x.values}


# ---------------------------------------------------------------------------
# combine against the refinement it replaced


def combine_oracle(coeffs, xs, rel=None) -> StepSequence:
    """The refinement combine replaced, kept as a slow oracle: every atom b
    of the next live sequence is tested against every earlier member of a
    composite through the relation table."""
    if len(coeffs) != len(xs) or not xs:
        raise ShapeError("coeffs and xs must have equal nonzero length")
    cs = [rat(c) for c in coeffs]
    table = _pair_table(len(xs), xs, rel)
    live = [i for i, c in enumerate(cs) if c != 0]
    if not live:
        return canonicalize(xs[0].partition, [Fraction(0)] * xs[0].num_atoms)
    composites = [(a,) for a in range(xs[live[0]].num_atoms)]
    for t in range(1, len(live)):
        sj = live[t]
        new = []
        for comp in composites:
            for b in range(xs[sj].num_atoms):
                ok = True
                for u in range(t):
                    si = live[u]
                    key = (si, sj) if si < sj else (sj, si)
                    pair = (comp[u], b) if si < sj else (b, comp[u])
                    if pair not in table[key]:
                        ok = False
                        break
                if ok:
                    new.append(comp + (b,))
        composites = new
    if not composites:
        raise BadRelationError("declared relations leave no infinite refined atom")
    atoms, values = [], []
    for comp in composites:
        ids = [xs[live[u]].partition.atoms[comp[u]].id for u in range(len(live))]
        atoms.append("&".join(ids))
        values.append(sum((cs[live[u]] * xs[live[u]].values[comp[u]]
                           for u in range(len(live))), Fraction(0)))
    return canonicalize(SymbolicPartition.from_ids(atoms), values)


def outcome(fn, *args):
    try:
        return "ok", fn(*args).to_json()
    except BadRelationError as exc:
        return "bad-relation", str(exc)


def random_step_sequence(rng, prefix, atoms):
    """Distinct small values, zero among them now and then, so that sums
    collide and canonicalize merges atoms."""
    values = set()
    while len(values) < atoms:
        values.add(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
    values = sorted(values, key=lambda v: rng.random())
    return step_sequence((f"{prefix}{i}", v) for i, v in enumerate(values))


def covering_pairs(rng, a, b, extra):
    """Pairs that cover every left and right atom, plus ``extra`` more."""
    left, right = list(range(a)), list(range(b))
    rng.shuffle(left)
    rng.shuffle(right)
    pairs = {(left[k % a], right[k % b]) for k in range(max(a, b))}
    rest = sorted(set(product(range(a), range(b))) - pairs)
    pairs.update(rng.sample(rest, min(extra, len(rest))))
    return frozenset(pairs)


# Atom counts per sequence count keep the oracle's product walk small.
MAX_ATOMS = {2: 14, 3: 10, 4: 6, 5: 4}


@pytest.mark.parametrize("seed", range(60))
def test_combine_matches_oracle_on_relation_tables(seed):
    rng = random.Random(f"combine-oracle/{seed}")
    k = 2 + seed % 4
    xs = [random_step_sequence(rng, f"s{i}.", rng.randint(1, MAX_ATOMS[k]))
          for i in range(k)]
    if seed % 7 == 0:
        xs[-1] = xs[0]  # same atom ids: the default pair relation is identity
    coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k)]
    if seed % 5 == 0:
        coeffs[rng.randrange(k)] = 0
    pairs = {(i, j) for i in range(k) for j in range(i + 1, k)}
    if k == 2 and seed % 3 == 0:
        rel = InfinitudeRelation(
            xs[0].partition, xs[1].partition,
            covering_pairs(rng, xs[0].num_atoms, xs[1].num_atoms, rng.randint(0, 12)))
    else:
        # a sparse table with atom indices past 8, where a set's iteration
        # order is not sorted; some sequence pairs keep their default
        rel = {(i, j): covering_pairs(rng, xs[i].num_atoms, xs[j].num_atoms,
                                      rng.randint(0, xs[i].num_atoms))
               for i, j in sorted(pairs) if rng.random() < 0.8}
    assert outcome(combine, coeffs, xs, rel) == outcome(combine_oracle, coeffs, xs, rel)


def test_combine_matches_oracle_with_zero_coefficients():
    rng = random.Random("combine-oracle/zeros")
    xs = [random_step_sequence(rng, f"z{i}.", 5) for i in range(4)]
    for coeffs in product((0, 1, Fraction(-1, 2)), repeat=4):
        assert combine(coeffs, xs).to_json() == combine_oracle(coeffs, xs).to_json()


@pytest.mark.parametrize("n_max,k_max", [(2, 8), (3, 16), (4, 30), (6, 30), (8, 20),
                                         (8, 30), (9, 26)])
@pytest.mark.parametrize("flavor", ["dyadic", "rational-dense"])
def test_combine_matches_oracle_on_spaceable_rows(n_max, k_max, flavor):
    rng = random.Random(f"combine-oracle/{n_max}x{k_max}/{flavor}")
    fam = spaceable_rows(n_max, k_max, flavor)
    table = fam.relation_table()
    alpha = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n_max)]
    assert (combine(alpha, fam.rows, table).to_json()
            == combine_oracle(alpha, fam.rows, table).to_json())


def test_combine_and_oracle_refuse_a_table_with_no_refined_atom():
    # each pair of sequences meets, but no triple of atoms meets pairwise
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 0), ("d", 2))
    w = seq(("e", 0), ("f", 4))
    table = {(0, 1): {(0, 0), (1, 1)}, (1, 2): {(0, 0), (1, 1)}, (0, 2): {(0, 1), (1, 0)}}
    for fn in (combine, combine_oracle):
        with pytest.raises(BadRelationError):
            fn([1, 1, 1], [x, y, w], table)
