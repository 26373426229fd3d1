"""The three workloads: seeded inputs, the timed call of each job, its check.

A workload is a fixed list of jobs built from ``--seed``. A job's ``run`` is
the timed call into limprof; its ``check`` inspects the output with the
independent code in ``checks.py`` and returns None, or the reason the job
failed. Calls into limprof go through the names imported below, so the
tracer can wrap them in this module's namespace like any other caller.

Why these workloads:

- certify: the user's pipeline through the CLI (construct, verify, refute,
  escape). Time goes to the builders and to certificate build and verify;
  the kernel sees many tiny rank calls.
- profile: the engine on seeded matrices, both sides of profile's row-count
  method choice, half with many coincident flats (narrow entries) and half
  with few (wide entries). The kernel sees nullspace and point search.
- lab: combine, escape, h_sequence and cluster estimation. Kernel and engine
  are nearly idle, so a kernel or engine change should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from limprof.builders import spaceable_rows
from limprof.cli import main as cli_main
from limprof.engine import collapse, profile, refute_interval
from limprof.geometry import escape
from limprof.kernel import RatMatrix
from limprof.lab import estimate_clusters, gen_combo, gen_fq, gen_rich, gen_spaceable, h_sequence
from limprof.sequences import InfinitudeRelation, combine, step_sequence

import checks

PINNED_SEED = 1
PINNED_PROFILES = Path(__file__).with_name("pinned_profiles.json")

PREFIX_LEN = 2**16
CLUSTER_EPSILON = 1e-6


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    jobs: list[Job]
    spec: dict  # every generated input, as canonical JSON data

    def digest(self) -> str:
        text = json.dumps(self.spec, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _s(x: Fraction) -> str:
    return str(Fraction(x))


def _distinct_columns(rng: random.Random, rows: int, cols: int, values) -> list[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set()
    out = []
    while len(out) < cols:
        c = tuple(rng.choice(values) for _ in range(rows))
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _matrix(columns) -> RatMatrix:
    return RatMatrix.from_rows([[c[i] for c in columns] for i in range(len(columns[0]))])


def _distinct_values(rng: random.Random, count: int) -> list[Fraction]:
    vals: set[Fraction] = set()
    while len(vals) < count:
        vals.add(Fraction(rng.randint(-60, 60), rng.randint(1, 6)))
    return sorted(vals, key=lambda v: rng.random())


def _relation_pairs(rng: random.Random, a: int, b: int, size: int) -> list[tuple[int, int]]:
    """``size`` distinct pairs, at least max(a, b), covering every left and
    every right atom."""
    left, right = list(range(a)), list(range(b))
    rng.shuffle(left)
    rng.shuffle(right)
    pairs = {(left[k % a], right[k % b]) for k in range(max(a, b))}
    rest = [(i, j) for i in range(a) for j in range(b) if (i, j) not in pairs]
    rng.shuffle(rest)
    pairs.update(rest[:size - len(pairs)])
    return sorted(pairs)


def _sequence_pair(rng: random.Random, a: int, b: int, size: int, plane: bool):
    """Two step sequences and a relation. With ``plane`` the value pairs
    over the relation are redrawn until there are at least five and they are
    not collinear: then some pair direction leaves at least (5 + 1) // 2 = 3
    classes, so escape from the counts {1, 2} always succeeds."""
    while True:
        xv, yv = _distinct_values(rng, a), _distinct_values(rng, b)
        pairs = _relation_pairs(rng, a, b, size)
        points = [(xv[i], yv[j]) for i, j in pairs]
        if not plane or (len(points) >= 5 and not checks.collinear(points)):
            break
    x = step_sequence([(f"x{i}", v) for i, v in enumerate(xv)])
    y = step_sequence([(f"y{j}", v) for j, v in enumerate(yv)])
    rel = InfinitudeRelation(x.partition, y.partition, frozenset(pairs))
    return x, y, rel


# ---------------------------------------------------------------------------
# certify: construct and verify every claim kind through limprof.cli.main

INTERVALS = [(n, d) for n in (2, 3, 4) for d in (0, 1, 2)] + [(5, 0), (5, 1)]
ODD_KS = (1, 2, 3)
POLYGONS = tuple(range(2, 13))
INDEPENDENT = [(k, split) for k in range(1, 9) for split in (2, 3)]
SPACEABLE = [(2, 8, "dyadic"), (3, 12, "rational-dense"), (4, 30, "dyadic"),
             (4, 30, "rational-dense")]
CERTIFY_REFUTES = 8
CERTIFY_ESCAPES = 8
ESCAPE_FORBIDDEN = (1, 2)


def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def _cli_job(name: str, argv: list[str], check: Callable[[str], str | None]) -> Job:
    def check_output(result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        return check(stdout)

    return Job(name, lambda: _cli(argv), check_output)


def build_certify(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"certify/{seed}")
    inputs = workdir / "inputs"
    out = workdir / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    jobs: list[Job] = []
    spec: dict = {"workload": "certify", "constructs": [], "refute": [], "escape": []}

    def construct(tag: str, claim: str, args: list[str], check_cert) -> None:
        cert, artifact = out / f"{tag}.cert.json", out / f"{tag}.json"
        argv = ["construct", *args, "--out", str(artifact), "--cert", str(cert)]
        spec["constructs"].append(args)
        jobs.append(_cli_job(f"construct {tag}", argv,
                             lambda stdout: checks.construct_output(stdout, cert, artifact,
                                                                    check_cert)))
        jobs.append(_cli_job(f"verify {tag}", ["verify", str(cert)],
                             lambda stdout: checks.verified(stdout, claim)))

    for n, d in INTERVALS:
        construct(f"interval-{n}-{d}", "interval-profile",
                  ["interval", "--n", str(n), "--d", str(d)],
                  lambda c, _, n=n, d=d: checks.interval_cert(c, n, d))
    for k in ODD_KS:
        construct(f"odd-{k}", "odd-profile", ["odd", "--k", str(k)],
                  lambda c, _: checks.odd_cert(c))
    for n in POLYGONS:
        construct(f"polygon-{n}", "polygon-profile", ["polygon", "--n", str(n)],
                  lambda c, _, n=n: checks.polygon_cert(c, n))
    for k, split in INDEPENDENT:
        construct(f"independent-{k}-{split}", "independent-family",
                  ["independent", "--k", str(k), "--split", str(split)],
                  lambda c, a, k=k, split=split: checks.independent_cert(c, a, k, split))
    for n_max, k_max, flavor in SPACEABLE:
        construct(f"spaceable-{n_max}-{k_max}-{flavor}", "spaceable-rows",
                  ["spaceable", "--n-max", str(n_max), "--k-max", str(k_max), "--flavor", flavor],
                  lambda c, a, n_max=n_max, k_max=k_max, flavor=flavor:
                  checks.spaceable_cert(c, a, n_max, k_max, flavor))

    for t in range(CERTIFY_REFUTES):
        rows = rng.choice((2, 3, 4))
        d = rng.randint(0, rows - 2)
        cols = _distinct_columns(rng, rows, rng.randint(2, 8), range(-20, 21))
        n = rng.randint(2, len(cols))
        matrix = {"entries": [[str(c[i]) for c in cols] for i in range(rows)]}
        path = inputs / f"refute-{t}.json"
        path.write_text(json.dumps(matrix), encoding="utf-8")
        spec["refute"].append({"matrix": matrix, "n": n, "d": d})
        cert = out / f"refute-{t}.cert.json"
        argv = ["refute", str(path), "--n", str(n), "--d", str(d), "--cert", str(cert)]
        jobs.append(_cli_job(f"refute {t}", argv,
                             lambda stdout, cols=cols, n=n, d=d, cert=cert:
                             checks.refute_cert(cert, cols, n, d)))
        jobs.append(_cli_job(f"verify refute {t}", ["verify", str(cert)],
                             lambda stdout: checks.verified(stdout, "refute-interval")))

    forbidden = ",".join(str(f) for f in ESCAPE_FORBIDDEN)
    for t in range(CERTIFY_ESCAPES):
        a, b = 3 + t % 4, 3 + (t + 1) % 4
        x, y, rel = _sequence_pair(rng, a, b, a * b // 2, plane=True)
        pair = {"x": x.to_json(), "y": y.to_json(), "relation": rel.to_json()}
        path = inputs / f"escape-{t}.json"
        path.write_text(json.dumps(pair), encoding="utf-8")
        spec["escape"].append(pair)
        cert = out / f"escape-{t}.cert.json"
        argv = ["escape", str(path), "--forbidden", forbidden, "--cert", str(cert)]
        jobs.append(_cli_job(f"escape {t}", argv,
                             lambda stdout, x=x, y=y, rel=rel, cert=cert:
                             checks.escape_cert(cert, x, y, rel, ESCAPE_FORBIDDEN)))
        jobs.append(_cli_job(f"verify escape {t}", ["verify", str(cert)],
                             lambda stdout: checks.verified(stdout, "escape")))
    return Workload(jobs, spec)


# ---------------------------------------------------------------------------
# profile: engine.profile, refute_interval and collapse on seeded matrices

# (rows, largest column count) per entry range; every size from 4 columns up.
# Two rows take the census path, three and four the pattern path.
WIDE_SHAPES = ((2, 12), (3, 8), (4, 8))
NARROW_SHAPES = ((2, 9), (3, 8), (4, 8))
# Matrices per shape, so that no single draw sets a pass time or a
# percentile; the two largest wide shapes cost about 0.7 s each and vary
# little from draw to draw, so they get one.
COPIES = 3
SINGLE = {(3, 8, "wide"), (4, 8, "wide")}
# More draws of two census shapes, after the rest so that the earlier
# matrices of a seed stay the same. Their profiles cost 7-12 ms whatever the
# seed, and they fill the thin part of the job-cost distribution around the
# 90th percentile, where job_p90_ms otherwise followed the costs of the few
# seeded matrices that happened to land there.
EXTRA = [(2, 11, "wide"), (2, 12, "wide")] * 3
WIDE_VALUES = range(-50, 51)
NARROW_VALUES = (-1, 0, 1)


def profile_shapes() -> list[tuple[int, int, str]]:
    shapes = []
    for kind, table in (("wide", WIDE_SHAPES), ("narrow", NARROW_SHAPES)):
        for rows, top in table:
            for cols in range(4, top + 1):
                copies = 1 if (rows, cols, kind) in SINGLE else COPIES
                shapes.extend([(rows, cols, kind)] * copies)
    return shapes + EXTRA


def build_profile(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"profile/{seed}")
    pinned = None
    if seed == PINNED_SEED:
        pinned = json.loads(PINNED_PROFILES.read_text(encoding="utf-8"))["achieved"]
    jobs: list[Job] = []
    spec: dict = {"workload": "profile", "matrices": []}
    for t, (rows, ncols, kind) in enumerate(profile_shapes()):
        values = WIDE_VALUES if kind == "wide" else NARROW_VALUES
        cols = _distinct_columns(rng, rows, ncols, values)
        m = _matrix(cols)
        # even matrices take refute's generic branch (N > n + d), odd ones
        # its collapse branch, so the mix does not depend on the seed
        if t % 2 == 0:
            d = rng.randint(0, min(rows - 2, ncols - 3))
            n = rng.randint(2, ncols - d - 1)
        else:
            d = rng.randint(0, rows - 2)
            n = rng.randint(max(2, ncols - d), ncols)
        chosen = sorted(rng.sample(range(ncols), rows))
        spec["matrices"].append({"columns": cols, "refute": [n, d], "collapse": chosen})
        expected = pinned[t] if pinned is not None else None
        tag = f"{rows}x{ncols} {kind} #{t}"
        jobs.append(Job(f"profile {tag}", lambda m=m: profile(m),
                        lambda p, m=m, e=expected: checks.profile_result(m, p, e)))
        jobs.append(Job(f"refute {tag}", lambda m=m, n=n, d=d: refute_interval(m, n, d),
                        lambda w, cols=cols, n=n, d=d: checks.refute_result(w, cols, n, d)))
        jobs.append(Job(f"collapse {tag}", lambda m=m, c=chosen: collapse(m, c),
                        lambda r, cols=cols, c=chosen: checks.collapse_result(r, cols, c)))
    return Workload(jobs, spec)


# ---------------------------------------------------------------------------
# lab: combine, escape, h_sequence and estimate_clusters

SPACEABLE_FAMILIES = [(n, k, flavor)
                      for n, k in ((2, 8), (3, 16), (4, 30), (6, 30), (8, 20), (8, 30), (9, 26))
                      for flavor in ("dyadic", "rational-dense")]
LAB_PAIRS = 40
LAB_ESCAPES = 24
LAB_H_SEQUENCES = 20
CLUSTER_GENERATORS = ("fq", "combo", "rich", "spaceable")
CLUSTER_DRAWS = 2  # parameter draws per generator, so that no single draw dominates
UNIT_RATIOS = [Fraction(p, q) for q in range(2, 8) for p in range(1, q)
               if Fraction(p, q).denominator == q]


def _small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _generator(kind: str, params: dict):
    if kind == "fq":
        return gen_fq(params["q"][0])
    if kind == "combo":
        return gen_combo(params["d"], params["q"])
    if kind == "rich":
        return gen_rich(params["q"][0])
    return gen_spaceable(params["alpha"], params["n_max"], params["k_max"], params["flavor"])


def _cluster_params(rng: random.Random, kind: str) -> dict:
    if kind in ("fq", "rich"):
        return {"q": [rng.choice(UNIT_RATIOS)]}
    if kind == "combo":
        return {"d": [_small_rational(rng) for _ in range(2)], "q": rng.sample(UNIT_RATIOS, 2)}
    return {"alpha": [_small_rational(rng) for _ in range(3)], "n_max": 3, "k_max": 8,
            "flavor": rng.choice(("dyadic", "rational-dense"))}


def build_lab(seed: int, workdir: Path) -> Workload:
    rng = random.Random(f"lab/{seed}")
    jobs: list[Job] = []
    spec: dict = {"workload": "lab", "spaceable": [], "pairs": [], "escape": [],
                  "h": [], "clusters": []}

    for n_max, k_max, flavor in SPACEABLE_FAMILIES:
        fam = spaceable_rows(n_max, k_max, flavor)
        table = fam.relation_table()
        alpha = [_small_rational(rng) for _ in range(n_max)]
        spec["spaceable"].append([n_max, k_max, flavor, [_s(a) for a in alpha]])
        jobs.append(Job(f"combine spaceable {n_max}x{k_max} {flavor}",
                        lambda a=alpha, rows=fam.rows, tb=table: combine(a, rows, tb),
                        lambda z, a=alpha, fam=fam: checks.spaceable_combination(z, a, fam.ladder)))

    # Sizes follow the job index and values follow the seed, so that the
    # cost of a pass hardly depends on the seed.
    for t in range(LAB_PAIRS):
        a, b = 2 + t % 9, 2 + 4 * t % 9
        x, y, rel = _sequence_pair(rng, a, b, max(a, b) + a * b // 4, plane=False)
        coeffs = [_small_rational(rng), _small_rational(rng)]
        spec["pairs"].append([x.to_json(), y.to_json(), rel.to_json(), [_s(c) for c in coeffs]])
        jobs.append(Job(f"combine pair {t}",
                        lambda c=coeffs, x=x, y=y, rel=rel: combine(c, [x, y], rel),
                        lambda z, c=coeffs, x=x, y=y, rel=rel:
                        checks.pair_combination(z, c, x, y, rel)))

    for t in range(LAB_ESCAPES):
        a, b = 3 + t % 4, 3 + t // 4 % 4
        x, y, rel = _sequence_pair(rng, a, b, max(5, a * b // 2), plane=True)
        spec["escape"].append([x.to_json(), y.to_json(), rel.to_json()])
        jobs.append(Job(f"escape {t} ({len(rel.pairs)} points)",
                        lambda x=x, y=y, rel=rel: escape(x, y, rel, ESCAPE_FORBIDDEN),
                        lambda w, x=x, y=y, rel=rel: checks.escape_witness(w, x, y, rel,
                                                                           ESCAPE_FORBIDDEN)))

    for t in range(LAB_H_SEQUENCES):
        terms, j_count = 1 + t % 3, 64 + 48 * (t % 5)
        d = [_small_rational(rng) for _ in range(terms)]
        q = rng.sample(UNIT_RATIOS, terms)
        spec["h"].append([[_s(v) for v in d], [_s(v) for v in q], j_count])
        jobs.append(Job(f"h_sequence {t}", lambda d=d, q=q, j=j_count: h_sequence(d, q, j),
                        lambda r, d=d, q=q, j=j_count: checks.h_report(r, d, q, j)))

    for kind in CLUSTER_GENERATORS * CLUSTER_DRAWS:
        params = _cluster_params(rng, kind)
        spec["clusters"].append([kind, {k: [_s(v) for v in vs] if isinstance(vs, list) else vs
                                        for k, vs in params.items()}])
        expected = checks.ExpectedClusters(kind, params, PREFIX_LEN, CLUSTER_EPSILON)
        jobs.append(Job(f"clusters {kind}",
                        lambda kind=kind, p=params: estimate_clusters(
                            _generator(kind, p), PREFIX_LEN, epsilon=CLUSTER_EPSILON),
                        expected.check))
    return Workload(jobs, spec)


BUILDERS = {"certify": build_certify, "profile": build_profile, "lab": build_lab}
