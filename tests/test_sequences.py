import dataclasses
import random
import sys
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import and_, getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limprof.builders import spaceable_rows
from limprof.errors import BadRelationError, EmptyInputError, ShapeError
from limprof.kernel import integer_multiple, rat
from limprof.sequences import (
    InfinitudeRelation,
    StepSequence,
    SymbolicPartition,
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


def test_partition_ids_are_built_once_and_are_not_a_field():
    part = SymbolicPartition.from_ids(["a", "b"])
    assert part.ids == ("a", "b")
    assert part.ids is part.ids
    assert [f.name for f in dataclasses.fields(part)] == ["atoms"]
    again = SymbolicPartition.from_ids(["a", "b"])
    assert again == part and hash(again) == hash(part)
    assert repr(part) == "SymbolicPartition(atoms=(Atom(id='a'), Atom(id='b')))"
    with pytest.raises(dataclasses.FrozenInstanceError):
        part.ids = ("c",)


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
# combine against the refinements it replaced


def pair_sets(coeff_count, xs, rel):
    """The relation argument as a table of atom pair sets keyed by sequence
    index pairs (i, j), i < j, each mapping entry checked by building an
    InfinitudeRelation: the table combine read before its bitmasks."""
    table = {}
    if rel is None:
        pass
    elif isinstance(rel, InfinitudeRelation):
        if coeff_count != 2:
            raise BadRelationError(
                "a single InfinitudeRelation only describes a two-sequence combine"
            )
        if rel.left.ids != xs[0].partition.ids or rel.right.ids != xs[1].partition.ids:
            raise BadRelationError("relation partitions do not match the sequences")
        table[(0, 1)] = rel.pairs
    elif isinstance(rel, Mapping):
        for (i, j), ps in rel.items():
            if not (0 <= i < j < coeff_count):
                raise BadRelationError(f"bad sequence index pair ({i},{j})")
            table[(i, j)] = InfinitudeRelation(
                xs[i].partition, xs[j].partition,
                frozenset((int(a), int(b)) for a, b in ps)).pairs
    else:
        raise BadRelationError("rel must be None, an InfinitudeRelation, or a mapping")
    for i in range(coeff_count):
        for j in range(i + 1, coeff_count):
            if (i, j) in table:
                continue
            if xs[i].partition.ids == xs[j].partition.ids:
                table[(i, j)] = frozenset((a, a) for a in range(xs[i].num_atoms))
            else:
                table[(i, j)] = frozenset(product(range(xs[i].num_atoms),
                                                  range(xs[j].num_atoms)))
    return table


def mask_table(coeff_count, xs, rel):
    """``pair_sets`` as bitmasks: per sequence index pair (i, j), per atom a
    of xs[i], the mask of the b with (a, b) in the pair set."""
    table = {}
    for (i, j), pairs in pair_sets(coeff_count, xs, rel).items():
        masks = [0] * xs[i].num_atoms
        for a, b in pairs:
            masks[a] |= 1 << b
        table[i, j] = masks
    return table


def combine_composites(coeffs, xs, rel=None) -> StepSequence:
    """The per-composite bitmask walk combine replaced: at step t every
    composite ANDs its t members' masks into the new sequence and is
    extended by the set bits, ascending; values are int sums over one common
    denominator."""
    if len(coeffs) != len(xs) or not xs:
        raise ShapeError("coeffs and xs must have equal nonzero length")
    cs = [rat(c) for c in coeffs]
    table = mask_table(len(xs), xs, rel)
    live = [i for i, c in enumerate(cs) if c != 0]
    if not live:
        return canonicalize(xs[0].partition, [Fraction(0)] * xs[0].num_atoms)
    composites = [(a,) for a in range(xs[live[0]].num_atoms)]
    for t in range(1, len(live)):
        masks = [table[si, live[t]] for si in live[:t]]
        tails, new = {}, []
        for comp in composites:
            common = reduce(and_, map(getitem, masks, comp))
            if (ext := tails.get(common)) is None:
                ext = tails[common] = [(b,) for b in range(common.bit_length())
                                       if common >> b & 1]
            new += map(comp.__add__, ext)
        composites = new
    if not composites:
        raise BadRelationError("declared relations leave no infinite refined atom")
    ints = [integer_multiple([*xs[i].values, 1]) for i in live]
    *weights, den = integer_multiple([*(cs[i] / v[-1] for i, v in zip(live, ints)), 1])
    scaled = [[w * x for x in v[:-1]] for w, v in zip(weights, ints)]
    ids = [xs[i].partition.ids for i in live]
    atoms = ["&".join(map(getitem, ids, comp)) for comp in composites]
    values = [Fraction(sum(map(getitem, scaled, comp)), den) for comp in composites]
    return canonicalize(SymbolicPartition.from_ids(atoms), values)


def combine_sets(coeffs, xs, rel=None) -> StepSequence:
    """The set-intersection refinement combine replaced, with Fraction sums:
    a composite is extended by the sorted intersection of its members'
    neighbour sets in the next live sequence."""
    if len(coeffs) != len(xs) or not xs:
        raise ShapeError("coeffs and xs must have equal nonzero length")
    cs = [rat(c) for c in coeffs]
    table = pair_sets(len(xs), xs, rel)
    live = [i for i, c in enumerate(cs) if c != 0]
    if not live:
        return canonicalize(xs[0].partition, [Fraction(0)] * xs[0].num_atoms)
    composites = [(a,) for a in range(xs[live[0]].num_atoms)]
    for t in range(1, len(live)):
        sj = live[t]
        nbs = []
        for si in live[:t]:
            nb = [set() for _ in range(xs[si].num_atoms)]
            for a, b in table[(si, sj)]:
                nb[a].add(b)
            nbs.append(nb)
        composites = [comp + (b,) for comp in composites
                      for b in sorted(set.intersection(*map(getitem, nbs, comp)))]
    if not composites:
        raise BadRelationError("declared relations leave no infinite refined atom")
    ids = [xs[i].partition.ids for i in live]
    scaled = [[cs[i] * v for v in xs[i].values] for i in live]
    atoms = ["&".join(map(getitem, ids, comp)) for comp in composites]
    values = [sum(map(getitem, scaled, comp), Fraction(0)) for comp in composites]
    return canonicalize(SymbolicPartition.from_ids(atoms), values)


def combine_oracle(coeffs, xs, rel=None) -> StepSequence:
    """The refinement before the neighbour sets, kept as a slow oracle: every
    atom b of the next live sequence is tested against every earlier member
    of a composite through the relation table."""
    if len(coeffs) != len(xs) or not xs:
        raise ShapeError("coeffs and xs must have equal nonzero length")
    cs = [rat(c) for c in coeffs]
    table = pair_sets(len(xs), xs, rel)
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


ORACLES = (combine_composites, combine_sets, combine_oracle)


def outcome(fn, *args):
    try:
        return "ok", fn(*args).to_json()
    except BadRelationError as exc:
        return "bad-relation", str(exc)


def assert_matches_oracles(*args):
    expected = outcome(combine, *args)
    assert [outcome(fn, *args) for fn in ORACLES] == [expected] * len(ORACLES)


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
    assert_matches_oracles(coeffs, xs, rel)


def test_combine_matches_oracle_with_zero_coefficients():
    rng = random.Random("combine-oracle/zeros")
    xs = [random_step_sequence(rng, f"z{i}.", 5) for i in range(4)]
    for coeffs in product((0, 1, Fraction(-1, 2)), repeat=4):
        assert_matches_oracles(coeffs, xs)


@pytest.mark.parametrize("n_max,k_max", [(2, 8), (3, 16), (4, 30), (6, 30), (8, 20),
                                         (8, 30), (9, 26)])
@pytest.mark.parametrize("flavor", ["dyadic", "rational-dense"])
def test_combine_matches_oracle_on_spaceable_rows(n_max, k_max, flavor):
    rng = random.Random(f"combine-oracle/{n_max}x{k_max}/{flavor}")
    fam = spaceable_rows(n_max, k_max, flavor)
    table = fam.relation_table()
    alpha = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n_max)]
    assert_matches_oracles(alpha, fam.rows, table)


def test_combine_and_oracle_refuse_a_table_with_no_refined_atom():
    # each pair of sequences meets, but no triple of atoms meets pairwise
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 0), ("d", 2))
    w = seq(("e", 0), ("f", 4))
    table = {(0, 1): {(0, 0), (1, 1)}, (1, 2): {(0, 0), (1, 1)}, (0, 2): {(0, 1), (1, 0)}}
    for fn in (combine, *ORACLES):
        with pytest.raises(BadRelationError):
            fn([1, 1, 1], [x, y, w], table)



@pytest.mark.parametrize("y_values, sums", [((1, 0), [1, 0, 2, 1]), ((0, 5), [0, 5, 1, 6])],
                         ids=["equal sums", "distinct sums"])
def test_combine_refuses_colliding_composite_ids(y_values, sums):
    """x atoms 'a&', 'a' and y atoms 'b', '&b' both join to 'a&&b'. With
    equal sums a merge by value alone would hide the collision in the one
    atom 'a&&b|a&&b'."""
    x = seq(("a&", 0), ("a", 1))
    y = seq(("b", y_values[0]), ("&b", y_values[1]))
    assert [xa + ya for xa in x.values for ya in y.values] == sums
    rel = InfinitudeRelation.full(x.partition, y.partition)
    for fn in (combine, *ORACLES):
        with pytest.raises(ShapeError, match="atom ids must be unique"):
            fn([1, 1], [x, y], rel)


def test_combine_reads_a_shared_relation_per_pair_of_atom_counts():
    """One pair set serves two sequence pairs with different atom counts:
    it is in range for (0, 1) and out of range for (0, 2)."""
    x, y = two_sequences()
    w = seq(("f", 2), ("g", 4))
    shared = frozenset({(0, 0), (1, 1), (1, 2)})
    for fn in (combine, *ORACLES):
        assert outcome(fn, [1, 1, 1], [x, y, w], {(0, 1): shared, (0, 2): shared}) == (
            "bad-relation", "pair (1,2) out of range")
    fits = frozenset({(0, 0), (1, 1)})
    assert_matches_oracles([1, 1, 1], [x, w, w], {(0, 1): fits, (0, 2): fits})


@pytest.mark.parametrize("n_max,k_max", [(1, 0), (2, 0), (3, 4), (5, 2)])
def test_relation_table_shares_one_pair_set(n_max, k_max):
    table = spaceable_rows(n_max, k_max).relation_table()
    last = k_max + 1
    per_pair = {}
    for i in range(n_max):
        for j in range(i + 1, n_max):
            pairs = {(last, last)}
            for t in range(k_max + 1):
                pairs.add((t, last))
                pairs.add((last, t))
            per_pair[(i, j)] = frozenset(pairs)
    assert table == per_pair
    assert len({id(pairs) for pairs in table.values()}) == min(1, len(table))


# Pairwise coprime denominators for values and coefficients: a common
# denominator of a sum is their product, not any one of them.
DENOMINATORS = (1, 2, 3, 5, 7)


def coprime_step_sequence(rng, prefix, atoms):
    """``atoms`` distinct values n/d, |n| <= 20, d in DENOMINATORS: few
    enough that sums collide and canonicalize merges atoms."""
    values = set()
    while len(values) < atoms:
        values.add(Fraction(rng.randint(-20, 20), rng.choice(DENOMINATORS)))
    values = sorted(values, key=lambda v: rng.random())
    return step_sequence((f"{prefix}{i}", v) for i, v in enumerate(values))


coefficient = st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3),
                                                 st.sampled_from(DENOMINATORS)))
nonzero_coefficient = st.builds(Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]),
                                st.sampled_from(DENOMINATORS))


@st.composite
def combine_inputs(draw):
    """Two to four sequences and a relation table. Wide sequences have more
    than 64 atoms, so a mask spans several machine words; their pairs get
    sparse covering tables, so refinement stays small. The last sequence may
    repeat the first, whose pair then keeps the default (identity)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    k = draw(st.integers(min_value=2, max_value=4))
    wide = draw(st.booleans())
    low, high = (65, 90) if wide else (1, 8)
    xs = [coprime_step_sequence(rng, f"s{i}.", rng.randint(low, high)) for i in range(k)]
    repeat = draw(st.booleans())
    if repeat:
        xs[-1] = xs[0]
    coeffs = draw(st.lists(coefficient, min_size=k, max_size=k))
    rel = {}
    for i in range(k):
        for j in range(i + 1, k):
            if repeat and (i, j) == (0, k - 1):
                continue
            if not wide and draw(st.booleans()):
                continue  # small pairs may keep generic position
            rel[(i, j)] = covering_pairs(rng, xs[i].num_atoms, xs[j].num_atoms,
                                         rng.randint(0, 2 * xs[i].num_atoms))
    return coeffs, xs, rel


@given(combine_inputs())
@settings(max_examples=200, deadline=None)
def test_combine_matches_oracles_on_drawn_inputs(inputs):
    assert_matches_oracles(*inputs)


# ---------------------------------------------------------------------------
# inputs whose prefixes share states: combine builds each state's completions
# once, and must list them as the per-composite walks do


@st.composite
def spaceable_inputs(draw):
    """A spaceable family with coefficients, zeros among them. Every row
    pair shares one relation, so each depth of the walk has about two
    states."""
    n_max = draw(st.integers(min_value=1, max_value=12))
    k_max = draw(st.integers(min_value=0, max_value=12))
    fam = spaceable_rows(n_max, k_max, draw(st.sampled_from(["dyadic", "rational-dense"])))
    coeffs = draw(st.lists(coefficient, min_size=n_max, max_size=n_max))
    return coeffs, fam.rows, fam.relation_table()


@st.composite
def shared_entry_inputs(draw):
    """Sequences of one atom count whose pairs all map to one entry object,
    or to one of two (a frozenset, a set or a list): prefixes with equal
    masks share a state. Coefficients are nonzero, so every sequence is
    walked."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    k = draw(st.integers(min_value=2, max_value=5))
    atoms = rng.randint(1, MAX_ATOMS[k])
    xs = [coprime_step_sequence(rng, f"s{i}.", atoms) for i in range(k)]
    kind = draw(st.sampled_from([frozenset, set, list]))
    entries = [kind(sorted(covering_pairs(rng, atoms, atoms, rng.randint(0, atoms * atoms))))
               for _ in range(draw(st.integers(min_value=1, max_value=2)))]
    rel = {(i, j): rng.choice(entries) for i in range(k) for j in range(i + 1, k)}
    return draw(st.lists(nonzero_coefficient, min_size=k, max_size=k)), xs, rel


@st.composite
def dying_inputs(draw):
    """Three to five sequences under covering relations with few or no
    extra pairs: many prefixes reach a later sequence with an empty mask, so
    their states die partway through the walk (sometimes all of them)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    k = draw(st.integers(min_value=3, max_value=5))
    xs = [coprime_step_sequence(rng, f"s{i}.", rng.randint(1, MAX_ATOMS[k]))
          for i in range(k)]
    rel = {(i, j): covering_pairs(rng, xs[i].num_atoms, xs[j].num_atoms, rng.randint(0, 2))
           for i in range(k) for j in range(i + 1, k)}
    return draw(st.lists(nonzero_coefficient, min_size=k, max_size=k)), xs, rel


@given(st.one_of(spaceable_inputs(), shared_entry_inputs(), dying_inputs()))
@settings(max_examples=200, deadline=None)
def test_combine_matches_oracles_where_states_are_shared(inputs):
    assert_matches_oracles(*inputs)


def test_combine_drops_states_that_die_partway():
    """(a, d) and (b, c) reach w with an empty mask; (a, c) and (b, d)
    complete."""
    x = seq(("a", 0), ("b", 1))
    y = seq(("c", 0), ("d", 2))
    w = seq(("e", 0), ("f", 4))
    diagonal = {(0, 0), (1, 1)}
    table = {(0, 1): {(0, 0), (0, 1), (1, 0), (1, 1)}, (0, 2): diagonal, (1, 2): diagonal}
    z = combine([1, 1, 1], [x, y, w], table)
    assert z.partition.ids == ("a&c&e", "b&d&f")
    assert z.values == (Fraction(0), Fraction(7))
    assert_matches_oracles([1, 1, 1], [x, y, w], table)


def test_combine_walks_deeper_than_the_recursion_limit():
    n = sys.getrecursionlimit() + 10
    xs = [seq((f"u{i}", 1)) for i in range(n)]
    z = combine([1] * n, xs)
    assert z.values == (Fraction(n),)
    assert z.partition.ids == ("&".join(f"u{i}" for i in range(n)),)


# ---------------------------------------------------------------------------
# the relation argument's checks: one fault each, with the message the pair
# set table gives


def two_sequences():
    return seq(("a", 0), ("b", 1)), seq(("c", 5), ("d", 7), ("e", 9))


RELATION_FAULTS = {
    "pair past the left atoms": ({(0, 1): {(0, 0), (1, 1), (1, 2), (2, 0)}},
                                 "pair (2,0) out of range"),
    "pair past the right atoms": ({(0, 1): {(0, 0), (1, 1), (1, 2), (0, 3)}},
                                  "pair (0,3) out of range"),
    "negative left atom": ({(0, 1): {(0, 0), (1, 1), (1, 2), (-1, 0)}},
                           "pair (-1,0) out of range"),
    "negative right atom": ({(0, 1): {(0, 0), (1, 1), (1, 2), (0, -1)}},
                            "pair (0,-1) out of range"),
    "uncovered left atom": ({(0, 1): {(0, 0), (0, 1), (0, 2)}},
                            "some left atom occurs in no pair"),
    "uncovered right atom": ({(0, 1): {(0, 0), (1, 1)}},
                             "some right atom occurs in no pair"),
    "no pairs": ({(0, 1): set()}, "some left atom occurs in no pair"),
    "key i > j": ({(1, 0): {(0, 0)}}, "bad sequence index pair (1,0)"),
    "key i == j": ({(0, 0): {(0, 0)}}, "bad sequence index pair (0,0)"),
    "key j past the sequences": ({(0, 2): {(0, 0)}}, "bad sequence index pair (0,2)"),
    "negative key": ({(-1, 1): {(0, 0)}}, "bad sequence index pair (-1,1)"),
    "another type": ([(0, 0), (1, 1)],
                     "rel must be None, an InfinitudeRelation, or a mapping"),
}


@pytest.mark.parametrize("fault", list(RELATION_FAULTS))
def test_combine_refuses_a_faulty_relation_table(fault):
    rel, message = RELATION_FAULTS[fault]
    x, y = two_sequences()
    for fn in (combine, *ORACLES):
        assert outcome(fn, [1, 1], [x, y], rel) == ("bad-relation", message)


def test_combine_refuses_an_infinitude_relation_it_does_not_describe():
    x, y = two_sequences()
    rel = InfinitudeRelation.full(x.partition, y.partition)
    flipped = InfinitudeRelation.full(y.partition, x.partition)
    cases = [
        ([1, 1, 1], [x, y, x], rel,
         "a single InfinitudeRelation only describes a two-sequence combine"),
        ([1], [x], rel, "a single InfinitudeRelation only describes a two-sequence combine"),
        ([1, 1], [x, y], flipped, "relation partitions do not match the sequences"),
        ([1, 1], [x, x], rel, "relation partitions do not match the sequences"),
    ]
    for coeffs, xs, r, message in cases:
        for fn in (combine, *ORACLES):
            assert outcome(fn, coeffs, xs, r) == ("bad-relation", message)


def test_combine_checks_every_entry_even_of_a_zero_coefficient():
    x, y = two_sequences()
    w = seq(("f", 2), ("g", 4))
    rel = {(0, 1): {(0, 0), (1, 1), (1, 2)}, (1, 2): {(0, 0), (1, 0), (2, 0)}}
    for fn in (combine, *ORACLES):
        assert outcome(fn, [1, 1, 0], [x, y, w], rel) == (
            "bad-relation", "some right atom occurs in no pair")


def test_combine_names_the_first_bad_pair_it_reads():
    """With several bad pairs the message names the first in the entry's
    own order; the pair set table named the first of a frozenset."""
    x, y = two_sequences()
    rel = {(0, 1): [(0, 0), (1, 1), (1, 2), (5, 1), (9, 0)]}
    assert outcome(combine, [1, 1], [x, y], rel) == ("bad-relation", "pair (5,1) out of range")
