"""Step sequences up to vanishing perturbations, and their exact combinations.

A bounded sequence whose accumulation points form a finite set is represented
canonically: a partition of the index set into finitely many infinite atoms,
plus one exact rational value per atom. Values are pairwise distinct in the
canonical form, and the set of accumulation points is exactly the value set.

Whether two atoms from different partitions intersect in an infinite set is
not derivable symbolically, so it is declared: an InfinitudeRelation lists
the pairs with infinite intersection. Combinations refine partitions along
those pairs; refined atoms without a declared infinite realization are
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, getitem
from typing import Iterable, Mapping, Sequence

from .errors import BadRelationError, EmptyInputError, ShapeError
from .kernel import json_object, json_rat, json_value, rat, rat_str

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


@dataclass(frozen=True)
class Atom:
    """One infinite piece of the index set."""

    id: str


@dataclass(frozen=True)
class SymbolicPartition:
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise EmptyInputError("partition needs at least one atom")
        ids = [a.id for a in self.atoms]
        if len(set(ids)) != len(ids):
            raise ShapeError("atom ids must be unique")

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "SymbolicPartition":
        return cls(tuple(Atom(i) for i in ids))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)


@dataclass(frozen=True)
class StepSequence:
    """Canonical representative: one distinct exact value per atom."""

    partition: SymbolicPartition
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != len(self.partition.atoms):
            raise ShapeError("one value per atom required")
        if len(set(exact_keys(self.values))) != len(self.values):
            raise ShapeError("canonical form requires pairwise distinct values")

    @property
    def num_atoms(self) -> int:
        return len(self.values)

    def accumulation_points(self) -> frozenset[Fraction]:
        return frozenset(self.values)

    def sup_value(self) -> Fraction:
        return max(abs(v) for v in self.values)

    def to_json(self) -> dict:
        return {
            "atoms": [a.id for a in self.partition.atoms],
            "values": [rat_str(v) for v in self.values],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "StepSequence":
        atoms, values = json_object(data, ("atoms", "values"))
        values = list(map(json_rat, json_value(values, list)))
        return canonicalize(SymbolicPartition.from_ids(_json_ids(atoms)), values)


def step_sequence(pairs: Iterable[tuple[str, object]]) -> StepSequence:
    """Build a canonical StepSequence from (atom id, value) pairs."""
    pairs = list(pairs)
    part = SymbolicPartition.from_ids(p[0] for p in pairs)
    return canonicalize(part, [rat(p[1]) for p in pairs])


def canonicalize(partition: SymbolicPartition, values: Sequence) -> StepSequence:
    """Merge atoms that share a value; value order follows first occurrence.

    Merged atoms get the id of their members joined with '|'. A merged union
    of infinite sets is infinite, so the result is a valid partition.
    """
    vals = [rat(v) for v in values]
    if len(vals) != len(partition.atoms):
        raise ShapeError("one value per atom required")
    groups: dict[tuple[int, int], list[Atom]] = {}
    order: list[Fraction] = []
    for atom, v, key in zip(partition.atoms, vals, exact_keys(vals)):
        members = groups.get(key)
        if members is None:
            groups[key] = [atom]
            order.append(v)
        else:
            members.append(atom)
    new_atoms = [members[0] if len(members) == 1 else Atom("|".join(a.id for a in members))
                 for members in groups.values()]
    return StepSequence(SymbolicPartition(tuple(new_atoms)), tuple(order))


def exact_keys(values: Sequence[Fraction]) -> Iterable[tuple[int, int]]:
    """(numerator, denominator) of each value: normalized Fractions share
    this key exactly when they are equal, and a tuple of ints hashes without
    the modular power that Fraction.__hash__ takes."""
    return zip(map(_numerator, values), map(_denominator, values))


@dataclass(frozen=True)
class InfinitudeRelation:
    """Declares which atom pairs (left index, right index) meet infinitely.

    Validity requires every left atom and every right atom to sit in at
    least one pair; otherwise the two partitions could not partition the
    same index set.
    """

    left: SymbolicPartition
    right: SymbolicPartition
    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        nl, nr = len(self.left), len(self.right)
        for i, j in self.pairs:
            if not (0 <= i < nl and 0 <= j < nr):
                raise BadRelationError(f"pair ({i},{j}) out of range")
        if {i for i, _ in self.pairs} != set(range(nl)):
            raise BadRelationError("some left atom occurs in no pair")
        if {j for _, j in self.pairs} != set(range(nr)):
            raise BadRelationError("some right atom occurs in no pair")

    @classmethod
    def full(cls, left: SymbolicPartition, right: SymbolicPartition) -> "InfinitudeRelation":
        """Generic position: every intersection declared infinite."""
        ps = frozenset((i, j) for i in range(len(left)) for j in range(len(right)))
        return cls(left, right, ps)

    @classmethod
    def nested(cls, left: SymbolicPartition, right: SymbolicPartition,
               assignment: Sequence[int]) -> "InfinitudeRelation":
        """Each right atom contained (mod finite) in the assigned left atom."""
        if len(assignment) != len(right):
            raise BadRelationError("assignment must map every right atom")
        ps = frozenset((assignment[j], j) for j in range(len(right)))
        return cls(left, right, ps)

    def to_json(self) -> dict:
        return {
            "left": [a.id for a in self.left.atoms],
            "right": [a.id for a in self.right.atoms],
            "pairs": sorted([i, j] for i, j in self.pairs),
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "InfinitudeRelation":
        left, right, pairs = json_object(data, ("left", "right", "pairs"))
        pairs = [tuple(json_value(i, int) for i in json_value(p, list))
                 for p in json_value(pairs, list)]
        if any(len(p) != 2 for p in pairs):
            raise ShapeError("a relation pair is two integer indices")
        return cls(SymbolicPartition.from_ids(_json_ids(left)),
                   SymbolicPartition.from_ids(_json_ids(right)), frozenset(pairs))


def _json_ids(data) -> list[str]:
    return [json_value(a, str) for a in json_value(data, list)]


def pair_from_json(data) -> tuple[StepSequence, StepSequence, InfinitudeRelation]:
    """The sequences x, y and their relation from an object with exactly
    the keys x, y and relation (the ``limprof escape`` input)."""
    x, y, rel = json_object(data, ("x", "y", "relation"))
    return (StepSequence.from_json(x), StepSequence.from_json(y),
            InfinitudeRelation.from_json(rel))


RelationTable = Mapping[tuple[int, int], frozenset[tuple[int, int]]]


def _pair_table(
    coeff_count: int,
    xs: Sequence[StepSequence],
    rel,
) -> dict[tuple[int, int], frozenset[tuple[int, int]]]:
    """Normalize the relation argument to a table keyed by sequence index pairs.

    Defaults: sequences over the same atom ids relate by identity (that is the
    only realizable relation of a partition with itself); otherwise all
    intersections are taken to be infinite (generic position).
    """
    table: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}
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
                table[(i, j)] = frozenset(
                    (a, b)
                    for a in range(xs[i].num_atoms)
                    for b in range(xs[j].num_atoms)
                )
    return table


def _neighbours(pairs: frozenset[tuple[int, int]], count: int) -> list[set[int]]:
    """nb[a]: the right atoms b whose pair (a, b) is declared infinite, for
    each of the ``count`` left atoms a."""
    nb: list[set[int]] = [set() for _ in range(count)]
    for a, b in pairs:
        nb[a].add(b)
    return nb


def combine(coeffs: Sequence, xs: Sequence[StepSequence], rel=None) -> StepSequence:
    """Exact combination sum(c_i * x_i) as a canonical StepSequence.

    Partitions are refined one live (nonzero-coefficient) sequence at a
    time, in index order; a refined atom survives only when every pairwise
    intersection along it is declared infinite. Each step builds, once per
    earlier live sequence, the neighbour sets of its atoms in the new
    sequence from the relation table, and extends a composite by the sorted
    intersection of its members' neighbour sets, so composites come out in
    lexicographic order. The value on a refined atom is the
    coefficient-weighted sum of the member values.
    """
    if len(coeffs) != len(xs) or not xs:
        raise ShapeError("coeffs and xs must have equal nonzero length")
    cs = [rat(c) for c in coeffs]
    table = _pair_table(len(xs), xs, rel)
    live = [i for i, c in enumerate(cs) if c != 0]
    if not live:
        return canonicalize(xs[0].partition, [Fraction(0)] * xs[0].num_atoms)

    composites: list[tuple[int, ...]] = [(a,) for a in range(xs[live[0]].num_atoms)]
    for t in range(1, len(live)):
        sj = live[t]
        nbs = [_neighbours(table[(si, sj)], xs[si].num_atoms) for si in live[:t]]
        last = [(b,) for b in range(xs[sj].num_atoms)]
        new: list[tuple[int, ...]] = []
        for comp in composites:
            common = set.intersection(*map(getitem, nbs, comp))
            new += map(comp.__add__, map(last.__getitem__, sorted(common)))
        composites = new
    if not composites:
        raise BadRelationError("declared relations leave no infinite refined atom")

    ids = [xs[i].partition.ids for i in live]
    scaled = [[cs[i] * v for v in xs[i].values] for i in live]
    atoms = ["&".join(map(getitem, ids, comp)) for comp in composites]
    values = [sum(filter(None, map(getitem, scaled, comp)), Fraction(0)) for comp in composites]
    return canonicalize(SymbolicPartition.from_ids(atoms), values)
