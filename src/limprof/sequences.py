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
from functools import reduce
from itertools import starmap
from operator import and_, attrgetter, or_
from typing import Iterable, Mapping, Sequence

from .errors import BadRelationError, EmptyInputError, ShapeError
from .kernel import integer_multiple, json_object, json_rat, json_value, rat, rat_str

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
        ids = tuple(a.id for a in self.atoms)
        if len(set(ids)) != len(ids):
            raise ShapeError("atom ids must be unique")
        # the atoms' ids, built once: a plain attribute, not a field, so
        # equality, hashing and repr still read the atoms alone
        object.__setattr__(self, "ids", ids)

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "SymbolicPartition":
        return cls(tuple(Atom(i) for i in ids))

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

    Merged atoms get the id of their members joined with '|' (``_merged``,
    which ``combine`` uses too). A merged union of infinite sets is
    infinite, so the result is a valid partition.
    """
    vals = [rat(v) for v in values]
    if len(vals) != len(partition.atoms):
        raise ShapeError("one value per atom required")
    merged = _merged(partition.ids, exact_keys(vals))
    return StepSequence(SymbolicPartition.from_ids(merged.values()),
                        tuple(starmap(Fraction, merged)))


def _merged(ids: Iterable[str], keys: Iterable) -> dict:
    """Key -> the ids of the atoms with that key joined with '|', keys and
    members in first-occurrence order."""
    groups: dict = {}
    for atom, key in zip(ids, keys):
        if (members := groups.get(key)) is None:
            groups[key] = [atom]
        else:
            members.append(atom)
    return {key: "|".join(members) for key, members in groups.items()}


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


def _masks(pairs: Iterable, nl: int, nr: int) -> list[int]:
    """Per left atom a, the mask of the b with (a, b) in ``pairs``; checked
    as InfinitudeRelation checks."""
    masks = [0] * nl
    for a, b in pairs:
        if not (0 <= a < nl and 0 <= b < nr):
            raise BadRelationError(f"pair ({a},{b}) out of range")
        masks[a] |= 1 << b
    if not all(masks):
        raise BadRelationError("some left atom occurs in no pair")
    if reduce(or_, masks) != (1 << nr) - 1:
        raise BadRelationError("some right atom occurs in no pair")
    return masks


def _pair_table(xs: Sequence[StepSequence], rel, live: list[int]) -> dict:
    """The relation argument as ``_masks`` keyed by sequence index pairs
    (i, j), i < j. A mapping's entries become masks once per object and
    pair of atom counts, so entries that share one relation share its masks
    (keyed by identity: an entry may be an unhashable set or list). Live
    pairs default to identity over the same atom ids (the only realizable
    relation of a partition with itself), else to generic position: every
    intersection infinite. Pairs share one default per (same ids, atom
    counts); the lists are only read."""
    table, masks = {}, {}
    if isinstance(rel, InfinitudeRelation):
        if len(xs) != 2:
            raise BadRelationError(
                "a single InfinitudeRelation only describes a two-sequence combine")
        if rel.left.ids != xs[0].partition.ids or rel.right.ids != xs[1].partition.ids:
            raise BadRelationError("relation partitions do not match the sequences")
        table[0, 1] = _masks(rel.pairs, len(rel.left), len(rel.right))
    elif isinstance(rel, Mapping):
        for (i, j), ps in rel.items():
            if not (0 <= i < j < len(xs)):
                raise BadRelationError(f"bad sequence index pair ({i},{j})")
            nl, nr = xs[i].num_atoms, xs[j].num_atoms
            if (m := masks.get(key := (id(ps), nl, nr))) is None:
                m = masks[key] = _masks(ps, nl, nr)
            table[i, j] = m
    elif rel is not None:
        raise BadRelationError("rel must be None, an InfinitudeRelation, or a mapping")
    defaults = {}
    for t, j in enumerate(live):
        ids, nr = xs[j].partition.ids, xs[j].num_atoms
        for i in live[:t]:
            if (i, j) not in table:
                nl, same = xs[i].num_atoms, xs[i].partition.ids == ids
                if (m := defaults.get(key := (same, nl, nr))) is None:
                    m = defaults[key] = [1 << a if same else (1 << nr) - 1 for a in range(nl)]
                table[i, j] = m
    return table


def _bits(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    return [b for b in range(mask.bit_length()) if mask >> b & 1]


def combine(coeffs: Sequence, xs: Sequence[StepSequence], rel=None) -> StepSequence:
    """Exact combination sum(c_i * x_i) as a canonical StepSequence.

    Partitions are refined along the live (nonzero-coefficient) sequences,
    in index order; a refined atom survives only when every pairwise
    intersection along it is declared infinite. A prefix of live atoms has
    a state: per later live sequence, the AND of its members' masks into
    it. Prefixes with one state have the same completions, so one forward
    pass collects each depth's distinct states, and one backward pass builds
    each state's completions once, as int sums over one common denominator
    and '&'-joined ids, extending by set bits in ascending order: refined
    atoms come out in lexicographic order, with no composite built. Refined
    atoms with equal sums are the atoms ``canonicalize`` would merge: they
    are merged on the sums, and the canonical result is built once.
    """
    if len(coeffs) != len(xs) or not xs:
        raise ShapeError("coeffs and xs must have equal nonzero length")
    cs = [rat(c) for c in coeffs]
    live = [i for i, c in enumerate(cs) if c != 0]
    table = _pair_table(xs, rel, live)
    if not live:
        return canonicalize(xs[0].partition, [Fraction(0)] * xs[0].num_atoms)

    # forward: per depth t < last, each state's (bit, child index) pairs; a
    # child with an empty mask has no completion and is dropped
    last = len(live) - 1
    states = [tuple((1 << xs[i].num_atoms) - 1 for i in live)]
    steps = []
    for t in range(last):
        # column b: the masks of atom b of live[t] into each later sequence
        columns = list(zip(*(table[live[t], j] for j in live[t + 1:])))
        reached, children = {}, []
        for state in states:
            rest, kids = state[1:], []
            for b in _bits(state[0]):
                child = tuple(map(and_, rest, columns[b]))
                if all(child):
                    kids.append((b, reached.setdefault(child, len(reached))))
            children.append(kids)
        steps.append(children)
        states = list(reached)

    # ints over each sequence's scale (a trailing 1 scales to it), then over one
    ints = [integer_multiple([*xs[i].values, 1]) for i in live]
    *weights, den = integer_multiple([*(cs[i] / v[-1] for i, v in zip(live, ints)), 1])
    scaled = [[w * x for x in v[:-1]] for w, v in zip(weights, ints)]
    ids = [xs[i].partition.ids for i in live]

    # backward: each state's completions (sums, ids), deepest first
    values, names = scaled[last], ids[last]
    completions = [([values[b] for b in bits], [names[b] for b in bits])
                   for bits in (_bits(state[0]) for state in states)]
    for t in reversed(range(last)):
        values, names = scaled[t], [a + "&" for a in ids[t]]
        below, completions = completions, []
        for kids in steps[t]:
            sums, atoms = [], []
            for b, k in kids:
                tail_sums, tail_atoms = below[k]
                sums += map(values[b].__add__, tail_sums)
                atoms += map(names[b].__add__, tail_atoms)
            completions.append((sums, atoms))
    sums, atoms = completions[0]
    if not atoms:
        raise BadRelationError("declared relations leave no infinite refined atom")

    # over one denominator equal sums are equal values: merge by the sums;
    # a merge could join two equal composite ids, so those are checked first
    merged = _merged(atoms, sums)
    if len(merged) < len(atoms) and len(set(atoms)) < len(atoms):
        raise ShapeError("atom ids must be unique")
    return StepSequence(SymbolicPartition.from_ids(merged.values()),
                        tuple(Fraction(s, den) for s in merged))
