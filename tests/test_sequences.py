from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limprof.errors import BadRelationError, EmptyInputError, ShapeError
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
