"""Command-line surface.

Subcommands: construct, profile, refute, escape, sample, verify.
Exit codes: 0 success/verified, 1 claim fails, 2 malformed input (its
``LimprofError``, or an ``OSError`` reading a file) or an output path that
cannot be written (``unwritable``: every output goes through ``_outputs``, so
a run that exits 2 or above creates or replaces no output file),
3 resource cap, 4 any other exception: a bug in limprof, not in the input.
A failure writes one JSON line with an ``error`` code to stderr. construct
and verify run the same per-claim payload, ``certificates.CLAIMS``. Output
is deterministic given the flags — no wall clock, no randomness except
under an explicit --seed, which only ever feeds sampled profiling.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import builders
from .certificates import (
    Certificate,
    build_escape_certificate,
    build_independent_certificate,
    build_interval_certificate,
    build_odd_certificate,
    build_polygon_certificate,
    build_refute_certificate,
    build_spaceable_certificate,
    canonical_json,
    verify_certificate,
)
from .engine import (
    matrix_from_json,
    merge_columns,
    profile,
    sample_profile,
)
from .errors import LimprofError, ShapeError, TooLargeError, UnwritableError
from .kernel import rat, rat_str
from .lab import estimate_clusters, gen_combo, gen_fq, gen_rich, gen_spaceable
from .sequences import pair_from_json


def _parsed_list(parse, text: str) -> list:
    """Comma-separated values read by ``parse``; a value it refuses is
    reported with its reason, as argparse reports a bad flag."""
    try:
        return [parse(part.strip()) for part in text.split(",") if part.strip()]
    except (TypeError, ValueError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rat_list(text: str) -> list[Fraction]:
    return _parsed_list(rat, text)


def _int_list(text: str) -> list[int]:
    return _parsed_list(int, text)


def _read_json(path: str):
    """The JSON value in the file ``path``. Bytes that are not UTF-8 or not
    JSON, an integer past Python's digit limit included, raise ShapeError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:
        raise ShapeError(f"{path}: not a JSON file: {exc}") from None


def _open_beside(path: str):
    """A new file beside ``path``, named for this process, opened for
    writing text as is. A directory at ``path`` raises IsADirectoryError
    here, before anything is written, as opening it would."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    for n in itertools.count():
        try:
            return open(f"{path}.{os.getpid()}.{n}.tmp", "x", encoding="utf-8", newline="")
        except FileExistsError:
            pass


@contextlib.contextmanager
def _outputs(*paths: str | None):
    """One file per path, opened for writing text as is (None for a path
    that is None), held open together. Each is written beside its path and
    renamed onto it, in the order given, only when the block ends cleanly
    and every file is closed; otherwise the new files are removed, so a
    failed run creates or replaces no output. An OSError (a missing
    directory, a directory, no permission) raises UnwritableError."""
    files = []
    where = None  # the path being opened, closed or renamed; in the block, any
    try:
        for where in paths:
            files.append(_open_beside(where) if where else None)
        where = ", ".join(filter(None, paths))
        yield files
        for where, fh in zip(paths, files):
            if fh is not None:
                fh.close()
        for where, fh in zip(paths, files):
            if fh is not None:
                os.replace(fh.name, where)
        files.clear()  # every new file is in place: nothing left to remove
    except OSError as exc:
        raise UnwritableError(f"{where}: cannot write: {exc}") from None
    finally:
        for fh in filter(None, files):
            fh.close()
            with contextlib.suppress(FileNotFoundError):
                os.remove(fh.name)


def _write_text(path: str, text: str) -> None:
    with _outputs(path) as (fh,):
        fh.write(text)


def _emit_certificate(cert: Certificate, cert_path: str | None) -> None:
    if cert_path:
        _write_text(cert_path, cert.dumps())
    else:
        sys.stdout.write(cert.dumps())


# ---------------------------------------------------------------------------
# construct


def _family_artifact(cert: Certificate) -> dict:
    fam = builders.independent_family(cert.params["k"], cert.params["split"])
    return {"k": fam.k, "split": fam.split, "atoms": fam.atoms}


# kind -> (certificate from the parsed flags, artifact from that certificate).
# The lambdas look the builders up at call time, so a wrapper installed on
# this module's globals (or on limprof.builders) sees every call.
CONSTRUCTS = {
    "interval": (lambda a: build_interval_certificate(a.n, a.d),
                 lambda cert: cert.inputs["matrix"]),
    "odd": (lambda a: build_odd_certificate(a.k),
            lambda cert: cert.inputs["matrix"]),
    "polygon": (lambda a: build_polygon_certificate(a.n),
                lambda cert: {**cert.inputs, "mode": cert.mode}),
    "independent": (lambda a: build_independent_certificate(a.k, a.split),
                    _family_artifact),
    "spaceable": (lambda a: build_spaceable_certificate(a.n_max, a.k_max, a.flavor),
                  lambda cert: {**cert.params, "ladder": cert.verification["ladder"],
                                "rows": cert.verification["rows"]}),
}


def cmd_construct(args) -> int:
    build, artifact = CONSTRUCTS[args.kind]
    cert = build(args)
    cert_path = args.cert
    if cert_path is None and args.out:
        cert_path = str(Path(args.out).with_suffix("")) + ".cert.json"
    if cert_path:
        with _outputs(args.out, cert_path) as (out_fh, cert_fh):
            if out_fh is not None:
                out_fh.write(canonical_json(artifact(cert)))
            cert_fh.write(cert.dumps())
        summary = {"claim": cert.claim, "mode": cert.mode, "pass": cert.holds}
        if "counts" in cert.verification:
            summary["counts"] = cert.verification["counts"]
        if "profile" in cert.verification:
            summary["counts"] = cert.verification["profile"]["achieved"]
        print(json.dumps(summary, sort_keys=True))
    else:
        sys.stdout.write(cert.dumps())
    return 0 if cert.holds else 1


# ---------------------------------------------------------------------------
# profile


def _random_directions(rows: int, seed: int, count: int = 32):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cand = tuple(Fraction(rng.randint(-9, 9)) for _ in range(rows))
        if any(cand):
            out.append(cand)
    return tuple(out)


def cmd_profile(args) -> int:
    data = _read_json(args.matrix)
    mat = matrix_from_json(data)
    result: dict = {"rows": mat.rows, "columns": mat.cols}
    merged, groups = merge_columns(mat)
    if merged.cols != mat.cols:
        result["note"] = "duplicate columns merged before profiling"
        result["columnGroups"] = [list(g) for g in groups]
        mat = merged
        result["columns"] = mat.cols
    if args.sample is not None:
        extra = ()
        if args.seed is not None:
            extra = _random_directions(mat.rows, args.seed)
        prof = sample_profile(mat, max_norm=args.sample, extra=extra)
        result["method"] = "sampled-lower-bound"
    else:
        prof = profile(mat)
        result["method"] = "exact"
    result["profile"] = prof.to_json()
    text = canonical_json(result)
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# refute


def cmd_refute(args) -> int:
    data = _read_json(args.matrix)
    mat = matrix_from_json(data)
    cert = build_refute_certificate(mat, args.n, args.d)
    _emit_certificate(cert, args.cert)
    if args.cert:
        print(json.dumps(
            {
                "alpha": cert.witnesses["alpha"],
                "multiplicity": cert.verification["multiplicity"],
                "escapes": cert.verification["escapes"],
            },
            sort_keys=True,
        ))
    return 0 if cert.holds else 1


# ---------------------------------------------------------------------------
# escape


def cmd_escape(args) -> int:
    x, y, rel = pair_from_json(_read_json(args.pair))
    forbidden = args.forbidden
    cert = build_escape_certificate(x, y, rel, forbidden)
    if cert is None:
        print(json.dumps(
            {"found": False, "forbidden": sorted(set(forbidden))}, sort_keys=True
        ))
        return 1
    _emit_certificate(cert, args.cert)
    if args.cert:
        print(json.dumps(
            {"found": True, "classCount": cert.witnesses["classCount"]},
            sort_keys=True,
        ))
    return 0


# ---------------------------------------------------------------------------
# sample


# --gen -> (the generator from the parsed flags, the counts of --q values it
# takes). The keys are --gen's choices; spaceable ignores --q.
GENERATORS = {
    "fq": (lambda a: gen_fq(*a.q), range(1, 2)),
    "combo": (lambda a: gen_combo(a.d, a.q), range(1, sys.maxsize)),
    "rich": (lambda a: gen_rich(*a.q), range(1, 2)),
    "spaceable": (lambda a: gen_spaceable(a.alpha, a.n_max, a.k_max, a.flavor),
                  range(sys.maxsize)),
}


# Largest --len for the sample paths that visit every index: --gen rich
# and any --csv. At this length `sample --gen rich --q 7/9 --csv` takes
# about 2.0 s with interpreter start and 70 MB (Python 3.11, 2 CPUs); at
# 2^20, before the cap, it took 9.2 s and 154 MB. fq, combo and spaceable
# estimates without --csv read about log2(--len) blocks and are not capped.
SAMPLE_CAP = 1 << 18


def cmd_sample(args) -> int:
    build, q_counts = GENERATORS[args.gen]
    if len(args.q) not in q_counts:
        many = "exactly" if len(q_counts) == 1 else "at least"
        raise LimprofError(f"--gen {args.gen} takes {many} one --q value, got {len(args.q)}")
    if (args.gen == "rich" or args.csv) and args.len > SAMPLE_CAP:
        raise TooLargeError(
            f"--len {args.len} exceeds the cap {SAMPLE_CAP} for --gen rich and --csv"
        )
    seq = build(args)
    # The estimate checks --len, --tail and --epsilon, so a bad value
    # fails before any file is written.
    estimate = estimate_clusters(
        seq, args.len, tail_fraction=args.tail, epsilon=args.epsilon
    )
    text = canonical_json(estimate.to_json())
    with _outputs(args.csv, args.clusters) as (csv_fh, clusters_fh):
        if csv_fh is not None:
            # One row per value as it is computed, so memory stays flat in --len.
            csv_fh.write("index,value\n")
            for i in range(args.len):
                v = seq.value_at(i)
                cell = rat_str(v) if args.exact else f"{float(v):.17g}"
                csv_fh.write(f"{i},{cell}\n")
        if clusters_fh is not None:
            clusters_fh.write(text)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    data = _read_json(args.certificate)
    cert = Certificate.from_json(data)
    ok, mismatches = verify_certificate(cert, data)
    if ok:
        print(json.dumps({"verified": True, "claim": cert.claim}, sort_keys=True))
        return 0
    for line in mismatches:
        print(line, file=sys.stderr)
    print(json.dumps(
        {"verified": False, "claim": cert.claim, "mismatches": len(mismatches)},
        sort_keys=True,
    ))
    return 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limprof",
        description="Exact accumulation-point profiles: construct, check, certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a certified example space")
    c.add_argument("kind", choices=list(CONSTRUCTS))
    c.add_argument("--n", type=int, default=2, help="target count (interval/polygon)")
    c.add_argument("--d", type=int, default=0, help="interval width")
    c.add_argument("--k", type=int, default=2, help="generator count (odd/independent)")
    c.add_argument("--split", type=int, default=2, choices=[2, 3])
    c.add_argument("--n-max", type=int, default=3, dest="n_max")
    c.add_argument("--k-max", type=int, default=8, dest="k_max")
    c.add_argument("--flavor", default="dyadic", choices=["dyadic", "rational-dense"])
    c.add_argument("--out", default=None, help="artifact JSON path")
    c.add_argument("--cert", default=None, help="certificate path (stdout if omitted)")
    c.set_defaults(func=cmd_construct)

    p = sub.add_parser("profile", help="exact profile of a matrix JSON file")
    p.add_argument("matrix")
    p.add_argument("--sample", type=int, default=None, metavar="MAXNORM",
                   help="sampled lower bound instead of the exact profile")
    p.add_argument("--seed", type=int, default=None,
                   help="extra random directions (sampling mode only)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_profile)

    r = sub.add_parser("refute", help="witness a multiplicity outside [n, n+d]")
    r.add_argument("matrix")
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--d", type=int, required=True)
    r.add_argument("--cert", default=None)
    r.set_defaults(func=cmd_refute)

    e = sub.add_parser("escape", help="combination count outside a forbidden set")
    e.add_argument("pair", help="JSON file with x, y, relation")
    e.add_argument("--forbidden", type=_int_list, required=True,
                   help="comma-separated counts")
    e.add_argument("--cert", default=None)
    e.set_defaults(func=cmd_escape)

    s = sub.add_parser("sample", help="CSV prefix and cluster estimate")
    s.add_argument("--gen", required=True, choices=list(GENERATORS))
    # Immutable defaults: main reuses one parser, so a default must not
    # carry a change from one call into the next.
    s.add_argument("--q", type=_rat_list, default=())
    s.add_argument("--d", type=_rat_list, default=())
    s.add_argument("--alpha", type=_rat_list, default=(rat(1),))
    s.add_argument("--n-max", type=int, default=3, dest="n_max")
    s.add_argument("--k-max", type=int, default=8, dest="k_max")
    s.add_argument("--flavor", default="dyadic", choices=["dyadic", "rational-dense"])
    s.add_argument("--len", type=int, required=True)
    s.add_argument("--tail", type=float, default=0.5)
    s.add_argument("--epsilon", type=float, default=None)
    s.add_argument("--csv", default=None)
    s.add_argument("--clusters", default=None)
    s.add_argument("--exact", action="store_true",
                   help="CSV values as exact p/q instead of 17-digit decimals")
    s.set_defaults(func=cmd_sample)

    v = sub.add_parser("verify", help="recheck a certificate bit for bit")
    v.add_argument("certificate")
    v.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on the first call to main (not at
    import), then reused: building it costs about as much as a small job."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except LimprofError as exc:
        error, message, code = exc.code, str(exc), exc.exit_code
    except OSError as exc:
        error, message, code = "malformed", str(exc), 2
    except Exception as exc:  # any other exception is a limprof bug, not bad input
        import traceback  # here, not at the top: importing it costs a few ms per process
        error, message, code = "internal", "".join(traceback.format_exception(exc)), 4
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
