"""Constructors for the finite value matrices and sequence families whose
multiplicity behavior the engine certifies.

Everything here is deterministic: the generic-vector search walks the same
integer grid every run, and each constructor's output is verified against
its defining property by the test suite and by emitted certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import mul
from typing import Callable, Iterator, Sequence

from .errors import InternalError, ShapeError, TooLargeError
from .kernel import (
    RatMatrix,
    Vec,
    integer_tuples,
    nullspace,
    rank_of_vectors,
    vec,
)
from .engine import profile
from .geometry import (
    POLYGON_CAP,
    POLYGON_TOLERANCE,
    approx_direction_census,
    approx_regular_polygon,
)
from .rationals import first_unit_rationals
from .sequences import StepSequence, combine, step_sequence

GENERIC_CAP = 7
# An odd certificate's construct and verify each took 0.3 s at k = 6 through the
# CLI, and 2.2 s at k = 7 in-process (126 MB peak RSS; Python 3.11, 2-core VM).
ODD_CAP = 6
FAMILY_CAP = 100_000


# ---------------------------------------------------------------------------
# generic vector families (affine-position recursion)


@dataclass(frozen=True)
class GenericVectorFamily:
    """n+d vectors in Q^{d+1}, starting at 0, in general position in the
    sense that every coefficient row on the resulting matrix attains at
    least n distinct values."""

    n: int
    d: int
    vectors: tuple[Vec, ...]

    def matrix(self) -> RatMatrix:
        return RatMatrix(
            tuple(
                tuple(v[i] for v in self.vectors) for i in range(self.d + 1)
            )
        )


def _partitions_into(k: int, blocks: int, prefix=(0,)) -> Iterator[tuple[int, ...]]:
    """Partitions of k points into exactly ``blocks`` blocks, S(k, blocks)
    of them, as restricted growth strings in lexicographic order."""
    if len(prefix) == k:
        yield prefix
        return
    used = max(prefix) + 1
    for label in range(min(used + 1, blocks)):
        if blocks - max(used, label + 1) < k - len(prefix):
            yield from _partitions_into(k, blocks, prefix + (label,))


def _hyperplane_values(
    prefix: list[tuple[int, ...]], d: int
) -> list[tuple[tuple[int, ...], set[int]]]:
    """One (normal, values) pair per partition Q of ``prefix`` into
    len(prefix) - d blocks: the integer normal of the hyperplane spanned by
    Q's d within-block differences, and the values it takes on the prefix."""
    k = len(prefix)
    out = []
    for assignment in _partitions_into(k, k - d):
        leads: dict[int, tuple[int, ...]] = {}
        diffs = []
        for p, b in zip(prefix, assignment):
            if b in leads:
                diffs.append([x - y for x, y in zip(p, leads[b])])
            else:
                leads[b] = p
        basis = nullspace(diffs)
        if len(basis) != 1:
            raise InternalError("generic_vectors: prefix lost general position")
        normal = basis[0]
        out.append((normal, {sum(map(mul, normal, p)) for p in prefix}))
    return out


def _acceptance_test(
    prefix: list[tuple[int, ...]], n: int, d: int
) -> Callable[[tuple[int, ...]], bool]:
    """Predicate on integer candidates for the next vector after ``prefix``
    (see ``generic_vectors`` for why it is exact); built once per step."""
    k = len(prefix)
    if n == 1 or d == 0:
        return lambda t: t not in prefix
    if k <= d:
        lead = prefix[0]
        diffs = [[x - y for x, y in zip(p, lead)] for p in prefix[1:]]
        return lambda t: rank_of_vectors(
            diffs + [[x - y for x, y in zip(t, lead)]]) == k
    forbidden = _hyperplane_values(prefix, d)

    def accepts(t: tuple[int, ...]) -> bool:
        for normal, values in forbidden:
            if sum(map(mul, normal, t)) in values:
                return False
        return True

    return accepts


def generic_vectors(n: int, d: int) -> GenericVectorFamily:
    """Greedy deterministic construction of the n+d vectors: candidates come
    from the integer grid in max-norm shells, the first acceptable one wins.

    Acceptance. For a partition P of the points, C(P) says that the
    within-block differences (each point minus its block's first point)
    have rank min(#differences, d+1). The family must satisfy C(P) for
    every partition P into at most n-1 blocks; then every nonzero row
    takes at least n distinct values. With m points, P has m - #blocks
    differences.

    - The differences of a refinement of P span a subspace of P's span, and
      if P's are independent so are the refinement's: a relation among them
      is sum_p c_p p = 0 with the c_p summing to 0 on every block of P,
      hence a relation among P's differences, so every c_p is 0. A
      coarsening's differences span a superspace of P's.
    - So C holds for every partition into at most n-1 blocks exactly when it
      holds for every partition into b* = max(1, m-d-1) blocks (b* <= n-1
      as m <= n+d): partitions with more blocks refine one of these and need
      independence; those with fewer coarsen one and need spanning.
    - By induction every prefix of k accepted points satisfies C for all
      its partitions into at most n-1 blocks. A partition of the extended
      prefix in which the candidate is a singleton restricts to one of
      these, so only partitions where it joins a block are new.

    The step test that follows, with k = len(prefix):

    - n == 1 admits no partition, and the test is distinctness. For d == 0,
      b* = m-1: one pair shares a block, and C says the pair differs; so
      the test is distinctness again.
    - k <= d: b* = 1, so prefix + candidate must be affinely independent:
      one rank of k differences.
    - k >= d+1: b* = k-d. Dropping the candidate from such a partition
      leaves a partition Q of the prefix into k-d blocks, whose d
      differences are independent by induction and span a hyperplane H_Q
      with normal nu_Q. Adding the candidate c to Q's block with first point
      v keeps C iff c - v is not in H_Q, i.e. nu_Q.c != nu_Q.v, and every
      point of a block has the same nu_Q value. So c is rejected iff
      nu_Q.c is a value nu_Q takes on the prefix, for some Q. The S(k, k-d)
      normals are computed once per step; each candidate then costs integer
      dot products.
    """
    if n < 1 or d < 0:
        raise ShapeError("need n >= 1 and d >= 0")
    if n + d > GENERIC_CAP:
        raise TooLargeError(f"n+d = {n + d} exceeds cap {GENERIC_CAP}")
    dim = d + 1
    points: list[tuple[int, ...]] = [(0,) * dim]
    while len(points) < n + d:
        accepts = _acceptance_test(points, n, d)
        points.append(next(t for t in integer_tuples(dim) if accepts(t)))
    return GenericVectorFamily(n, d, tuple(vec(p) for p in points))


def interval_space(n: int, d: int) -> RatMatrix:
    """(d+1) x (n+d) matrix whose profile is contained in [n, n+d] with both
    endpoints achieved: columns are a generic vector family."""
    if n < 2:
        raise ShapeError("need n >= 2")
    return generic_vectors(n, d).matrix()


# ---------------------------------------------------------------------------
# odd-cardinality spaces and sign families


def odd_space(k: int) -> RatMatrix:
    """k x 3^k matrix with one column per sign vector in {-1,0,1}^k.

    Every nonzero coefficient row has a symmetric value set containing 0,
    hence an odd number of accumulation points, and at least 3 of them."""
    if k < 1:
        raise ShapeError("need k >= 1")
    if k > ODD_CAP:
        raise TooLargeError(f"k = {k} exceeds cap {ODD_CAP}")
    cols = list(product((-1, 0, 1), repeat=k))
    return RatMatrix.from_rows([[Fraction(e[j]) for e in cols] for j in range(k)])


@dataclass(frozen=True)
class IndependentFamily:
    """k generators over sign-vector atoms: generator g's piece for sign e is
    the union of atoms whose g-th coordinate is e. Any choice of one sign per
    generator picks a single (nonempty) atom, which is what independence of
    the family means at this finite scale."""

    k: int
    split: int
    atoms: tuple[tuple[int, ...], ...]

    def piece(self, generator: int, sign: int) -> tuple[int, ...]:
        if not 0 <= generator < self.k:
            raise ShapeError("generator index out of range")
        return self._pieces[generator].get(sign, ())

    @cached_property
    def _pieces(self) -> list[dict[int, tuple[int, ...]]]:
        """Per generator, sign -> ascending atom indices: one pass over the
        generator's column of the atom table. The pieces share one set of
        index objects."""
        index = tuple(range(len(self.atoms)))
        pieces = []
        for column in list(zip(*self.atoms)) or [()] * self.k:
            groups: dict[int, list[int]] = {s: [] for s in set(column)}
            for i, s in zip(index, column):
                groups[s].append(i)
            pieces.append({s: tuple(ix) for s, ix in groups.items()})
        return pieces


def independent_family(k: int, split: int = 2) -> IndependentFamily:
    if split not in (2, 3):
        raise ShapeError("split must be 2 or 3")
    if k < 1:
        raise ShapeError("need k >= 1")
    if k > FAMILY_CAP.bit_length() or split**k > FAMILY_CAP:  # no power of a huge k
        raise TooLargeError(f"{split}^{k} atoms exceeds cap {FAMILY_CAP}")
    values = (0, 1) if split == 2 else (-1, 0, 1)
    return IndependentFamily(k, split, tuple(product(values, repeat=k)))


# ---------------------------------------------------------------------------
# polygon spaces


@dataclass(frozen=True)
class PolygonSpace:
    """Vertices of an (affinely) regular 2n-gon as a 2-row value matrix.

    Exact mode (n in {2, 3}) uses rational affine images with pairwise
    distinct abscissas; approximate mode (every other n) uses float vertices
    of the regular polygon and a direction census at POLYGON_TOLERANCE.
    ``counts`` is computed on first access: the certificate recounts from
    its own stored inputs and never reads it."""

    n: int
    mode: str
    matrix: RatMatrix | None = None
    vertices: tuple[tuple[float, float], ...] | None = None
    tolerance: float | None = None

    @cached_property
    def counts(self) -> tuple[int, ...]:
        if self.mode == "exact":
            return profile(self.matrix).achieved
        return approx_direction_census(self.vertices, tol=self.tolerance)


_EXACT_POLYGONS = {
    # affinely regular square: {+-a, +-b} for independent a, b
    2: ((1, 2), (2, -1), (-1, -2), (-2, 1)),
    # affinely regular hexagon: {+-a, +-b, +-(b-a)} with distinct abscissas
    3: ((1, 0), (3, 1), (2, 1), (-1, 0), (-3, -1), (-2, -1)),
}


def polygon_space(n: int) -> PolygonSpace:
    if n < 2:
        raise ShapeError("need n >= 2")
    if n > POLYGON_CAP:
        raise TooLargeError(f"n = {n} exceeds cap {POLYGON_CAP}")
    if n in _EXACT_POLYGONS:
        verts = _EXACT_POLYGONS[n]
        if len({v[0] for v in verts}) != len(verts):
            raise InternalError("exact polygon table has repeated abscissas")
        mat = RatMatrix.from_rows(
            [[Fraction(v[0]) for v in verts], [Fraction(v[1]) for v in verts]]
        )
        return PolygonSpace(n, "exact", matrix=mat)
    return PolygonSpace(n, "approximate", vertices=approx_regular_polygon(n),
                        tolerance=POLYGON_TOLERANCE)


# ---------------------------------------------------------------------------
# disjointly supported rows with prescribed value ladders


@dataclass(frozen=True)
class SpaceableFamily:
    """Rows with pairwise disjoint supports and common value ladder a_0, a_1, ...

    Row r takes value a_t on its own atom A{r}.{t} and 0 on a residual atom
    covering everything else, including every other row's support. Any
    combination with coefficients bounded by 1 in absolute value therefore
    has supremum value a_0 (attained on the A{r}.0 atom of a coefficient-1
    row), which is the truncation-level picture of an isometric embedding."""

    flavor: str
    n_max: int
    k_max: int
    ladder: tuple[Fraction, ...]
    rows: tuple[StepSequence, ...]

    def relation_table(self) -> dict[tuple[int, int], frozenset[tuple[int, int]]]:
        """Pairwise infinitude: a support atom only meets the other row's
        residual atom; the residuals meet each other."""
        table = {}
        last = self.k_max + 1
        for i in range(self.n_max):
            for j in range(i + 1, self.n_max):
                pairs = {(last, last)}
                for t in range(self.k_max + 1):
                    pairs.add((t, last))
                    pairs.add((last, t))
                table[(i, j)] = frozenset(pairs)
        return table

    def combination(self, alpha: Sequence) -> StepSequence:
        if len(alpha) != self.n_max:
            raise ShapeError("one coefficient per row required")
        return combine(alpha, self.rows, self.relation_table())


def value_ladder(k_max: int, flavor: str = "dyadic") -> tuple[Fraction, ...]:
    """a_0 .. a_{k_max}: halving steps, or the unit-interval rational
    enumeration for the dense flavor."""
    if k_max < 0:
        raise ShapeError("need k_max >= 0")
    if flavor == "dyadic":
        return tuple(Fraction(1, 2**t) for t in range(k_max + 1))
    if flavor == "rational-dense":
        return first_unit_rationals(k_max + 1)
    raise ShapeError(f"unknown flavor {flavor!r}")


def spaceable_rows(n_max: int, k_max: int, flavor: str = "dyadic") -> SpaceableFamily:
    if n_max < 1:
        raise ShapeError("need n_max >= 1")
    ladder = value_ladder(k_max, flavor)
    rows = []
    for r in range(n_max):
        pairs = [(f"A{r}.{t}", ladder[t]) for t in range(k_max + 1)]
        pairs.append((f"R{r}", Fraction(0)))
        rows.append(step_sequence(pairs))
    return SpaceableFamily(flavor, n_max, k_max, ladder, tuple(rows))
