"""Spans around calls into each layer, recorded from outside the program.

The tracer wraps public names in the namespaces of the modules that call
them (``limprof.engine.nullspace`` is the kernel's nullspace as the engine
sees it), so a call across a layer boundary becomes a span: name, start,
end, parent span, and the job it belongs to. Calls inside one layer stay
unwrapped and count toward that layer's self time. Spans stay in memory
and are written out when the run ends.

Kernel spans cover its linear-algebra entry points (rank, nullspace,
solve_affine, generic_point, normalize_primitive); scalar helpers such as
``rat`` and ``dot`` count toward their caller. The rationals enumeration
runs lazily inside the lab's generators, so it counts as lab time.

The sequences the lab's generators return count their ``value_at`` calls,
the values the lab actually evaluates, without recording a span for each.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
from collections import Counter
from time import perf_counter

# (caller namespace, attribute, span name); the layer is the name's first part.
# "module:Class" patches a method on the class for every caller.
CALL_SITES = [
    ("limprof.builders", "rank_of_vectors", "kernel.rank"),
    ("limprof.kernel:RatMatrix", "rank", "kernel.rank"),
    ("limprof.engine", "nullspace", "kernel.nullspace"),
    ("limprof.engine", "solve_affine", "kernel.solve_affine"),
    ("limprof.engine", "generic_point", "kernel.generic_point"),
    ("limprof.engine", "normalize_primitive", "kernel.normalize_primitive"),
    ("limprof.geometry", "normalize_primitive", "kernel.normalize_primitive"),
    ("limprof.certificates", "normalize_primitive", "kernel.normalize_primitive"),
    ("limprof.builders", "profile", "engine.profile"),
    ("limprof.certificates", "profile", "engine.profile"),
    ("limprof.certificates", "refute_interval", "engine.refute_interval"),
    ("limprof.certificates", "multiplicity", "engine.multiplicity"),
    ("workloads", "profile", "engine.profile"),
    ("workloads", "refute_interval", "engine.refute_interval"),
    ("workloads", "collapse", "engine.collapse"),
    ("limprof.certificates", "interval_space", "builders.interval_space"),
    ("limprof.certificates", "odd_space", "builders.odd_space"),
    ("limprof.certificates", "polygon_space", "builders.polygon_space"),
    ("limprof.certificates", "independent_family", "builders.independent_family"),
    ("limprof.certificates", "spaceable_rows", "builders.spaceable_rows"),
    # cli imports independent_family inside cmd_construct, from this namespace
    ("limprof.builders", "independent_family", "builders.independent_family"),
    ("limprof.lab", "value_ladder", "builders.value_ladder"),
    ("limprof.cli", "build_interval_certificate", "certificates.build_interval_certificate"),
    ("limprof.cli", "build_odd_certificate", "certificates.build_odd_certificate"),
    ("limprof.cli", "build_polygon_certificate", "certificates.build_polygon_certificate"),
    ("limprof.cli", "build_independent_certificate", "certificates.build_independent_certificate"),
    ("limprof.cli", "build_spaceable_certificate", "certificates.build_spaceable_certificate"),
    ("limprof.cli", "build_refute_certificate", "certificates.build_refute_certificate"),
    ("limprof.cli", "build_escape_certificate", "certificates.build_escape_certificate"),
    ("limprof.cli", "verify_certificate", "certificates.verify_certificate"),
    ("limprof.certificates:Certificate", "dumps", "certificates.dumps"),
    ("limprof.builders", "combine", "sequences.combine"),
    ("limprof.certificates", "combine", "sequences.combine"),
    ("workloads", "combine", "sequences.combine"),
    ("limprof.builders", "approx_regular_polygon", "geometry.approx_regular_polygon"),
    ("limprof.builders", "approx_direction_census", "geometry.approx_direction_census"),
    ("limprof.certificates", "approx_direction_census", "geometry.approx_direction_census"),
    ("limprof.certificates", "escape", "geometry.escape"),
    ("workloads", "escape", "geometry.escape"),
    ("workloads", "h_sequence", "lab.h_sequence"),
    ("workloads", "estimate_clusters", "lab.estimate_clusters"),
    ("workloads", "cli_main", "cli.main"),
]

# Work counted at a span, from its arguments and result.
SIZES = {
    "engine.profile": lambda args, result: len(result.achieved),
    "builders.interval_space": lambda args, result: result.cols,
    "certificates.dumps": lambda args, result: len(result.encode()),
}

# (caller namespace, generator, counter): the PrefixSequence a generator
# returns counts each value_at call under the counter's name.
COUNTED_SEQUENCES = [("workloads", gen, "lab.value_at.calls")
                     for gen in ("gen_fq", "gen_combo", "gen_rich", "gen_spaceable")]


def _resolve(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; ``job`` tags the spans of one job."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, job, name, start, end, size)
        self.job = -1
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []
        self.counted: Counter = Counter()

    def wrap(self, name: str, fn):
        spans, stack, ids, size = self.spans, self._stack, self._ids, SIZES.get(name)

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                n = size(args, result) if size and result is not None else 0
                spans.append((sid, parent, self.job, name, start, end, n))

        return traced

    def counting(self, name: str, generator):
        counted = self.counted

        def traced(*args, **kwargs):
            seq = generator(*args, **kwargs)
            value_at = seq.value_at

            def counted_value_at(m):
                counted[name] += 1
                return value_at(m)

            return dataclasses.replace(seq, value_at=counted_value_at)

        return traced

    def install(self) -> None:
        for target, attr, name in CALL_SITES:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))
        for target, attr, name in COUNTED_SEQUENCES:
            owner = _resolve(target)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.counting(name, original))

    def take_counted(self) -> dict[str, int]:
        """The counts since the last call, and a fresh start."""
        counted = dict(self.counted)
        self.counted.clear()
        return counted

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_job(self, job_index: int, fn):
        self.job = job_index
        return self.wrap("bench.job", fn)()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,job,name,start,end,size\n")
            for sid, parent, job, name, start, end, n in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{job},{name},"
                         f"{start!r},{end!r},{n}\n")


def layer_metrics(spans, factors, counted) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metrics of one pass, and the call and size counts behind
    them (which must repeat exactly from pass to pass). Times are scaled by
    the calibration factor of the span's job, {job index: factor}, as the
    job times are; ``counted`` holds the pass's counts made without spans."""
    name_of = {s[0]: s[3] for s in spans}
    covered: Counter = Counter()
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    self_s: Counter = Counter()
    counts: Counter = Counter(counted)
    for sid, parent, job, name, start, end, n in spans:
        self_s[name] += (end - start - covered[sid]) * factors[job]
        counts[f"{name}.calls"] += 1
        counts[f"{name}.size"] += n
        parent_name = name_of.get(parent, "")
        if name == "kernel.rank" and parent_name.startswith("builders."):
            counts["kernel.rank.under_builders"] += 1
        if name == "kernel.nullspace" and parent_name == "engine.profile":
            counts["kernel.nullspace.under_profile"] += 1

    def layer_self(layer: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    kernel_calls = sum(v for k, v in counts.items()
                       if k.startswith("kernel.") and k.endswith(".calls"))
    verify_s = self_s["certificates.verify_certificate"]
    metrics = {
        "kernel.calls": kernel_calls,
        "kernel.self_s": layer_self("kernel"),
        "kernel.rank.calls": counts["kernel.rank.calls"],
        "kernel.nullspace.calls": counts["kernel.nullspace.calls"],
        "kernel.generic_point.calls": counts["kernel.generic_point.calls"],
        "engine.profile.calls": counts["engine.profile.calls"],
        "engine.self_s": layer_self("engine"),
        "engine.solves_per_profile": ratio(counts["kernel.nullspace.under_profile"],
                                           counts["engine.profile.calls"]),
        "engine.yield": ratio(counts["engine.profile.size"],
                              counts["kernel.nullspace.under_profile"]),
        "builders.self_s": layer_self("builders"),
        "builders.rank_per_vector": ratio(counts["kernel.rank.under_builders"],
                                          counts["builders.interval_space.size"]),
        "certificates.build_s": layer_self("certificates") - verify_s,
        "certificates.verify_s": verify_s,
        "certificates.bytes": counts["certificates.dumps.size"],
        "cli.calls": counts["cli.main.calls"],
        "cli.self_s": layer_self("cli"),
        "sequences.combine.calls": counts["sequences.combine.calls"],
        "sequences.self_s": layer_self("sequences"),
        "geometry.self_s": layer_self("geometry"),
        "lab.self_s": layer_self("lab"),
        "lab.values_evaluated": counts["lab.value_at.calls"],
    }
    return metrics, dict(counts)
