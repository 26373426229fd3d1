"""Output checks that do not reuse the timed code path.

Each check returns None when the output is right and a short reason when it
is not. Counts are recomputed here by direct evaluation of alpha^T M; the
only limprof call is ``engine.multiplicity``, which re-derives a profile
witness's count by evaluating it rather than by the search that found it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

from limprof.engine import multiplicity


def _count(alpha, columns) -> int:
    """Distinct values of alpha . c over the columns."""
    return len({sum((a * x for a, x in zip(alpha, c)), Fraction(0)) for c in columns})


def _fracs(strings) -> list[Fraction]:
    return [Fraction(s) for s in strings]


def _columns(matrix_json: dict) -> list[tuple[Fraction, ...]]:
    rows = [_fracs(r) for r in matrix_json["entries"]]
    return list(zip(*rows))


def collinear(points) -> bool:
    (ox, oy), rest = points[0], points[1:]
    return all((x1 - ox) * (y2 - oy) == (y1 - oy) * (x2 - ox)
               for (x1, y1) in rest for (x2, y2) in rest)


def fusc_unit_rationals(count: int) -> list[Fraction]:
    """First ``count`` rationals in (0, 1) of the Calkin-Wilf order, from
    Stern's diatomic sequence: the t-th term is fusc(t)/fusc(t+1)."""
    fusc = [0, 1]
    out: list[Fraction] = []
    t = 1
    while len(out) < count:
        while len(fusc) <= t + 1:
            n = len(fusc)
            fusc.append(fusc[n // 2] if n % 2 == 0 else fusc[n // 2] + fusc[n // 2 + 1])
        if fusc[t] < fusc[t + 1]:
            out.append(Fraction(fusc[t], fusc[t + 1]))
        t += 1
    return out


def ladder(k_max: int, flavor: str) -> list[Fraction]:
    if flavor == "dyadic":
        return [Fraction(1, 1 << t) for t in range(k_max + 1)]
    return fusc_unit_rationals(k_max + 1)


# ---------------------------------------------------------------------------
# certify


def construct_output(stdout: str, cert_path: Path, artifact_path: Path,
                     check_cert) -> str | None:
    """Check a construct run: its summary, and its certificate together with
    the artifact it wrote (``--out``)."""
    summary = json.loads(stdout.strip().splitlines()[-1])
    if summary.get("pass") is not True:
        return f"construct summary does not pass: {summary}"
    return check_cert(json.loads(cert_path.read_text(encoding="utf-8")),
                      json.loads(artifact_path.read_text(encoding="utf-8")))


def verified(stdout: str, claim: str) -> str | None:
    result = json.loads(stdout.strip().splitlines()[-1])
    if result != {"verified": True, "claim": claim}:
        return f"verify printed {result}"
    return None


def _witness_counts(cert: dict, columns) -> str | None:
    for key, alpha in cert["witnesses"].items():
        got = _count(_fracs(alpha), columns)
        if got != int(key):
            return f"witness for {key} gives {got} values"
    return None


def interval_cert(cert: dict, n: int, d: int) -> str | None:
    columns = _columns(cert["inputs"]["matrix"])
    if len(columns) != n + d or len(columns[0]) != d + 1:
        return "matrix is not (d+1) x (n+d)"
    achieved = cert["verification"]["profile"]["achieved"]
    if not all(n <= c <= n + d for c in achieved) or achieved[0] != n or achieved[-1] != n + d:
        return f"counts {achieved} are not inside [{n}, {n + d}] with both ends"
    if sorted(int(k) for k in cert["witnesses"]) != achieved:
        return "witness keys differ from the achieved counts"
    return _witness_counts(cert, columns)


def odd_cert(cert: dict) -> str | None:
    columns = _columns(cert["inputs"]["matrix"])
    counts = cert["verification"]["counts"]
    if not counts or any(c % 2 == 0 or c < 3 for c in counts):
        return f"counts {counts} are not all odd and at least 3"
    for alpha in cert["witnesses"].values():
        a = _fracs(alpha)
        values = {sum((x * y for x, y in zip(a, c)), Fraction(0)) for c in columns}
        if values != {-v for v in values} or 0 not in values:
            return "a witness value set is not symmetric around 0"
    return _witness_counts(cert, columns)


def _census(points, tol: float | None) -> list[int]:
    """Class counts along every pair direction, plus the generic count."""
    def classes(nx, ny) -> int:
        vals = sorted(nx * x + ny * y for x, y in points)
        if tol is None:
            return len(set(vals))
        return 1 + sum(1 for a, b in zip(vals, vals[1:]) if b - a > tol)

    counts = {len(points)}
    for i, (x1, y1) in enumerate(points):
        for x2, y2 in points[i + 1:]:
            nx, ny = y1 - y2, x2 - x1
            if tol is not None:
                norm = math.hypot(nx, ny)
                nx, ny = nx / norm, ny / norm
            counts.add(classes(nx, ny))
    return sorted(counts)


def polygon_cert(cert: dict, n: int) -> str | None:
    expected = sorted({n, n + 1, 2 * n})
    if cert["verification"]["counts"] != expected:
        return f"counts {cert['verification']['counts']} != {expected}"
    inputs = cert["inputs"]
    if "matrix" in inputs:
        got = _census(_columns(inputs["matrix"]), None)
    else:
        got = _census([tuple(p) for p in inputs["vertices"]], float(inputs["tolerance"]))
    return None if got == expected else f"recounted {got} != {expected}"


def independent_cert(cert: dict, artifact: dict, k: int, split: int) -> str | None:
    """Recount the family in the artifact: every sign pattern is exactly one
    atom, so each generator's pieces partition the atoms."""
    signs = (0, 1) if split == 2 else (-1, 0, 1)
    atoms = Counter(tuple(a) for a in artifact["atoms"])
    if (artifact["k"], artifact["split"]) != (k, split):
        return f"artifact is for (k, split) = ({artifact['k']}, {artifact['split']})"
    if set(atoms) != set(product(signs, repeat=k)) or set(atoms.values()) != {1}:
        return "the atoms are not each sign pattern exactly once"
    v = cert["verification"]
    if v["atomCount"] != len(artifact["atoms"]) or not v["pass"]:
        return f"certificate counts {v['atomCount']} atoms, the artifact {len(artifact['atoms'])}"
    return None


def spaceable_cert(cert: dict, artifact: dict, n_max: int, k_max: int,
                   flavor: str) -> str | None:
    """Recompute from the artifact's rows: row r is the ladder on its own
    atoms and 0 on one residual atom, supports are pairwise disjoint, so the
    sup of every row and of the all-ones combination is the top of the
    ladder."""
    own = ladder(k_max, flavor)
    if _fracs(artifact["ladder"]) != own:
        return "ladder differs from the recomputed one"
    rows = artifact["rows"]
    if len(rows) != n_max:
        return f"{len(rows)} rows, not {n_max}"
    supports: list[set[str]] = []
    for row in rows:
        values = _fracs(row["values"])
        support = {a for a, x in zip(row["atoms"], values) if x}
        if sorted(x for x in values if x) != sorted(own) or len(values) != len(own) + 1:
            return "a row is not the ladder plus one residual 0"
        if any(support & other for other in supports):
            return "two rows have overlapping supports"
        supports.append(support)
    top = str(max(own))
    v = cert["verification"]
    if v["supValue"] != top or v["allOnesCombinationSup"] != top or not v["pass"]:
        return f"certificate sups {v['supValue']}, {v['allOnesCombinationSup']} != {top}"
    return None


def refute_cert(cert_path: Path, columns, n: int, d: int) -> str | None:
    cert = json.loads(cert_path.read_text(encoding="utf-8"))
    got = _count(_fracs(cert["witnesses"]["alpha"]), columns)
    if got != cert["verification"]["multiplicity"] or n <= got <= n + d:
        return f"witness gives {got} values, inside [{n}, {n + d}] or not as stored"
    return None


def _escape_count(alpha, beta, x, y, rel) -> int:
    return len({alpha * x.values[i] + beta * y.values[j] for i, j in rel.pairs})


def escape_cert(cert_path: Path, x, y, rel, forbidden) -> str | None:
    w = json.loads(cert_path.read_text(encoding="utf-8"))["witnesses"]
    got = _escape_count(Fraction(w["alpha"]), Fraction(w["beta"]), x, y, rel)
    if got != w["classCount"] or got in forbidden:
        return f"witness gives {got} classes, stored {w['classCount']}"
    return None


# ---------------------------------------------------------------------------
# profile


def profile_result(m, prof, expected) -> str | None:
    achieved = list(prof.achieved)
    if achieved != sorted(set(achieved)) or sorted(prof.witnesses) != achieved:
        return "achieved counts and witnesses disagree"
    if m.cols not in achieved:
        return "the generic count N is missing"
    for k, w in prof.witnesses.items():
        if multiplicity(m, w) != k:
            return f"witness for {k} has multiplicity {multiplicity(m, w)}"
    if expected is not None and achieved != expected:
        return f"achieved {achieved} != pinned {expected}"
    return None


def refute_result(w, columns, n: int, d: int) -> str | None:
    got = _count(w.alpha, columns)
    if not any(w.alpha) or got != w.multiplicity or n <= got <= n + d:
        return f"witness gives {got} values, inside [{n}, {n + d}] or not as reported"
    return None


def collapse_result(result, columns, chosen) -> str | None:
    alpha, gamma = result
    values = {sum((a * x for a, x in zip(alpha, columns[j])), Fraction(0)) for j in chosen}
    if not any(alpha) or values != {gamma}:
        return f"chosen columns take values {sorted(values)}, not just {gamma}"
    return None


# ---------------------------------------------------------------------------
# lab


def spaceable_combination(z, alpha, ladder_values) -> str | None:
    """Row r's support atoms meet only the other rows' residual atoms, and
    the residuals meet each other: the values are alpha_r * a_t and 0."""
    want = {a * v for a in alpha if a for v in ladder_values} | {Fraction(0)}
    return None if set(z.values) == want else "value set differs from alpha_r * a_t and 0"


def pair_combination(z, coeffs, x, y, rel) -> str | None:
    want = {coeffs[0] * x.values[i] + coeffs[1] * y.values[j] for i, j in rel.pairs}
    return None if set(z.values) == want else "value set differs from the relation pairs"


def escape_witness(w, x, y, rel, forbidden) -> str | None:
    if w is None:
        return "no escape found"
    got = _escape_count(w.alpha, w.beta, x, y, rel)
    if got != w.class_count or got in forbidden:
        return f"witness gives {got} classes, reported {w.class_count}"
    return None


def h_report(report, d, q, j_count: int) -> str | None:
    want = [sum((dt * qt**j for dt, qt in zip(d, q)), Fraction(0)) for j in range(j_count)]
    if list(report.values) != want:
        return "level values differ"
    groups: dict[Fraction, list[int]] = {}
    for j, v in enumerate(want):
        groups.setdefault(v, []).append(j)
    repeats = {(v, tuple(js)) for v, js in groups.items() if len(js) > 1}
    return None if set(report.repeats) == repeats else "repeats differ"


def _two_adic(t: int) -> int:
    return (t & -t).bit_length() - 1


def _single_linkage(values_weights, epsilon: float) -> list[tuple[float, int]]:
    """Groups of sorted values split at gaps above epsilon; weighted means."""
    out: list[tuple[float, int]] = []
    group: list[tuple[float, int]] = []
    for v, w in sorted(values_weights):
        if group and v - group[-1][0] > epsilon:
            out.append(_mean(group))
            group = []
        group.append((v, w))
    out.append(_mean(group))
    return out


def _mean(group) -> tuple[float, int]:
    total = sum(w for _, w in group)
    return sum(v * w for v, w in group) / total, total


class ExpectedClusters:
    """Cluster centers of a 2^16 prefix, derived without the lab module.

    fq and combo: value h_j sits on the indices m with nu_2(m+1) = j, so the
    tail holds h_j a closed-form number of times; clustering the exact
    levels with those weights gives the centers, which must match within
    epsilon. rich and spaceable: every tail value is recomputed from its
    index (Calkin-Wilf terms from Stern's sequence, pairing labels by
    triangular numbers), then clustered; the centers must match to 1e-12.
    """

    def __init__(self, kind: str, params: dict, n: int, epsilon: float, tail: float = 0.5):
        self.kind, self.params, self.n, self.epsilon = kind, params, n, epsilon
        self.start = n - max(1, math.ceil(n * tail))
        self._centers: list[tuple[float, int]] | None = None

    def centers(self) -> list[tuple[float, int]]:
        if self._centers is None:
            if self.kind in ("fq", "combo"):
                self._centers = _single_linkage(self._levels(), self.epsilon)
            else:
                if self.kind == "rich":
                    self._table = fusc_unit_rationals(self.n // 2 + 1)
                else:
                    self._table = ladder(self.params["k_max"], self.params["flavor"])
                values = [(float(self._value(m)), 1) for m in range(self.start, self.n)]
                self._centers = _single_linkage(values, self.epsilon)
        return self._centers

    def _levels(self):
        d = self.params.get("d", [Fraction(1)])
        q = self.params["q"]

        def upto(t: int, j: int) -> int:  # indices 1..t with nu_2 == j
            return (t >> j) - (t >> (j + 1))

        for j in range(self.n.bit_length()):
            weight = upto(self.n, j) - upto(self.start, j)
            if weight:
                yield float(sum((dt * qt**j for dt, qt in zip(d, q)), Fraction(0))), weight

    def _value(self, m: int) -> Fraction:
        j = _two_adic(m + 1)
        if self.kind == "rich":  # rank i of m in its atom: m + 1 = 2^j (2i + 1)
            return self.params["q"][0] ** j * self._table[(m + 1) >> (j + 1)]
        w = 0  # j = T(w) + step with T(w) = w(w+1)/2 and step <= w
        while (w + 1) * (w + 2) // 2 <= j:
            w += 1
        step = j - w * (w + 1) // 2
        row = w - step
        alpha = self.params["alpha"]
        if row < len(alpha) and step <= self.params["k_max"]:
            return alpha[row] * self._table[step]
        return Fraction(0)

    def check(self, estimate) -> str | None:
        got = list(estimate.centers)
        want = self.centers()
        tol = self.epsilon if self.kind in ("fq", "combo") else 1e-12
        if [k for _, k in got] != [k for _, k in want]:
            return f"{len(got)} clusters with other sizes than the {len(want)} expected"
        for (c, _), (e, _) in zip(got, want):
            if abs(c - e) > tol:
                return f"center {c!r} is not within {tol} of {e!r}"
        return None
