"""limprof benchmark: one workload per run, closed loop, one job at a time.

    python3 perfbench/run.py --workload {certify,profile,lab} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root; it imports limprof from ``src/``. Inputs
come from ``--seed`` alone, and their digest is printed. After one warm-up
pass, the run makes passes over the workload's fixed job list for about
``--seconds`` seconds. Every job's output is checked after its pass, outside
the timed region; a job fails if it raises, exits nonzero, fails its check
or exceeds its time limit.

Job times are calibrated. The speed of a shared machine drifts (by up to 2x
within minutes on the shared 2-core x86-64 VM it was tuned on), so a fixed
pure-Python reference loop is timed between jobs, in a separate interpreter
that never imports limprof: what limprof changes in its own process (garbage
collector settings, garbage a job leaves behind) cannot reach the reference.
The run and the reference share one CPU, so that the reference measures the
CPU the jobs run on. A job's time is scaled by REF_SECONDS over the median
of the reference samples around it, so a reported job second is a second on
a machine where the reference takes REF_SECONDS. Set-up time is calibrated
against a fixed interpreter launch instead (see setup_seconds). The
uncalibrated figures are printed too, on the ``raw`` line.

``--trace 0`` reports the end-to-end metrics: wall_s (median pass time),
job_p50_ms and job_p90_ms (over every job of every timed pass), ok_frac
(jobs that passed over jobs attempted, 1 - failed_frac), setup_s (median
over fresh interpreters of the time from launch until the first job is
ready) and peak_rss_mb. ``--trace 1`` runs every job both untraced and
traced, and reports the per-layer metrics of ``tracing.py`` (medians over
passes), including the tracing overhead. Metric names and units come from
BENCHMARK.json at the repository root. The last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
JOB_LIMIT_S = 60.0
SETUP_PROBES = 9
REF_SECONDS = 0.001  # the reference loop's time on an idle 2-core x86-64 VM, Python 3.11
REF_LAUNCH = [sys.executable, "-c",
              "import argparse, dataclasses, fractions, json, random; print('ready')"]
REF_LAUNCH_SECONDS = 0.05  # REF_LAUNCH's time on the same machine


class JobTimeout(BaseException):
    """Raised in a job that runs past its limit. A BaseException, so that no
    ``except Exception`` in the program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def import_limprof():
    """Import limprof from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import limprof

    if not Path(limprof.__file__).resolve().is_relative_to(src):
        raise ImportError(f"limprof came from {limprof.__file__}, not {src}")


# The reference: fixed work of the kind limprof's hot loops do (Fraction
# arithmetic, hashing and dict updates), timed as the best of two runs each
# time a line arrives on stdin.
SPEED_PROBE = """
import sys, time
from fractions import Fraction

def reference():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 250):
        acc += Fraction(i % 17, i % 13 + 1)
        seen[i % 97] = acc
        acc -= Fraction(1, i % 5 + 1)

for _ in range(3):
    reference()
for _ in sys.stdin:
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - t0)
    print(repr(best), flush=True)
"""


def pin_to_one_cpu() -> None:
    """Keep this process, and every child it starts from now on, on one CPU.
    On the VM the benchmark was tuned on, a reference timed on the other
    CPU hardly followed the jobs' speed; on the same CPU it did."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """A child interpreter that times the reference loop when asked."""

    def __init__(self):
        self.child = subprocess.Popen([sys.executable, "-c", SPEED_PROBE],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def seconds(self) -> float:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        return float(self.child.stdout.readline())

    def close(self) -> None:
        self.child.stdin.close()
        try:
            self.child.wait(timeout=10)
        finally:
            if self.child.poll() is None:
                self.child.kill()
                self.child.wait()
            self.child.stdout.close()


def calibration_factors(samples: list[float]) -> list[float]:
    """Factor of job i, which ran between samples i and i + 1: REF_SECONDS
    over the median of the six samples around it, so that one disturbed
    sample does not skew a job."""
    return [REF_SECONDS / statistics.median(samples[max(0, i - 2):i + 4])
            for i in range(len(samples) - 1)]


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the metrics in one section of BENCHMARK.json, in its
    order; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_pass(jobs, outdir: Path, probe: SpeedProbe, tracer=None, order=None,
             limit_s: float = JOB_LIMIT_S):
    """One timed pass over the job list, then the checks.

    With a tracer every job runs twice in a row, untraced and traced, so
    that the tracing overhead is measured at one machine speed; which of the
    two goes first is drawn from ``order`` (a random.Random), as the second
    run of a job finds warmer caches. Returns [(job index, traced, seconds,
    calibration factor)], one per run, and [(job name, reason)] for the runs
    that failed.
    """
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    plan = []
    for i in range(len(jobs)):
        if tracer is None:
            plan.append((i, False))
        else:
            first = order.random() < 0.5
            plan.extend([(i, first), (i, not first)])
    results = []
    samples = [probe.seconds()]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for i, traced in plan:
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, limit_s)
            try:
                out = tracer.run_job(i, jobs[i].run) if traced else jobs[i].run()
                err = None
            except JobTimeout:
                out, err = None, f"over the {limit_s} s limit"
            except Exception as exc:  # a failed job is counted, not fatal
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            finally:
                seconds = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
                if traced:
                    tracer.uninstall()
            results.append((seconds, out, err))
            samples.append(probe.seconds())
    finally:
        signal.signal(signal.SIGALRM, previous)
    factors = calibration_factors(samples)
    runs, failures = [], []
    for (i, traced), (seconds, out, err), factor in zip(plan, results, factors):
        runs.append((i, traced, seconds, factor))
        if err is None:
            try:
                err = jobs[i].check(out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failures.append((jobs[i].name + (" (traced)" if traced else ""), err))
    return runs, failures


def _launch_seconds(argv: list[str]) -> tuple[float, str]:
    """Time from launching ``argv`` until it prints its first line, and the
    line; the child is waited for, and killed if it hangs."""
    t0 = time.perf_counter()
    child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = child.stdout.readline()
        seconds = time.perf_counter() - t0
        code = child.wait(timeout=60)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return seconds, line


def setup_seconds(workload: str, seed: int) -> tuple[float, float, set[str]]:
    """Median time from launching a fresh interpreter until its first job is
    ready (import limprof, generate the inputs), calibrated and raw, and the
    input digests the children printed.

    Calibrated like the jobs, but against a launch: an interpreter that
    imports some of the standard library and exits runs before each probe,
    and the probes are scaled by REF_LAUNCH_SECONDS over the median of those
    launches. Process launch and imports did not follow the pure-Python
    reference loop; they do follow this one (over 12 repetitions on that
    VM, the spread of the median probe fell from 15% to 3.5%)."""
    probes, launches, digests = [], [], set()
    for _ in range(SETUP_PROBES):
        launches.append(_launch_seconds(REF_LAUNCH)[0])
        seconds, line = _launch_seconds(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"])
        if not line.startswith("ready "):
            raise RuntimeError(f"setup probe printed {line!r}")
        probes.append(seconds)
        digests.add(line.split()[1])
    raw = statistics.median(probes)
    return raw * REF_LAUNCH_SECONDS / statistics.median(launches), raw, digests


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["certify", "profile", "lab"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_limprof()
    except ImportError as exc:
        print(f"cannot import limprof: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.BUILDERS[args.workload](args.seed, workdir)
        if args.setup_probe:
            print(f"ready {wl.digest()}", flush=True)
            return 0
        pin_to_one_cpu()
        return measure(args, wl, workdir, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, workdir: Path, tracing) -> int:
    digest = wl.digest()
    print(f"workload {args.workload} seed {args.seed} jobs {len(wl.jobs)} inputs_digest {digest}")
    if not args.trace:
        setup_s, raw_setup_s, digests = setup_seconds(args.workload, args.seed)
        if digests != {digest}:
            print(f"setup probes generated other inputs: {sorted(digests)}", file=sys.stderr)
            return 1

    outdir = workdir / "out"
    tracer = tracing.Tracer() if args.trace else None
    order = random.Random(f"order/{args.seed}")
    walls: dict[bool, list[float]] = {False: [], True: []}
    raw_walls: list[float] = []
    pass_metrics, pass_counts = [], []
    latencies: list[float] = []
    raw_latencies: list[float] = []
    probe = SpeedProbe()
    try:
        start = time.perf_counter()
        # The first pass warms up: its outputs are checked, its times dropped.
        runs, failures = run_pass(wl.jobs, outdir, probe)
        attempted = len(runs)
        while True:
            first_span = len(tracer.spans) if tracer else 0
            pass_start = time.perf_counter()
            runs, failed = run_pass(wl.jobs, outdir, probe, tracer, order)
            attempted += len(runs)
            failures.extend(failed)
            for traced in (False, True):
                if tracer or not traced:
                    walls[traced].append(sum(s * f for _, t, s, f in runs if t == traced))
            raw_walls.append(sum(s for _, t, s, _ in runs if not t))
            if tracer:
                factors = {i: f for i, traced, _, f in runs if traced}
                m, counts = tracing.layer_metrics(tracer.spans[first_span:], factors,
                                                  tracer.take_counted())
                pass_metrics.append(m)
                pass_counts.append(counts)
            else:
                latencies.extend(s * f for _, _, s, f in runs)
                raw_latencies.extend(s for _, _, s, _ in runs)
            now = time.perf_counter()
            if now - start + (now - pass_start) > args.seconds:
                break  # one more pass as long as the last would overrun
    finally:
        probe.close()

    for name, reason in failures[:20]:
        print(f"FAILED {name}: {reason}")
    wall_s = statistics.median(walls[False])
    for traced in (False, True):
        if walls[traced]:
            label = "traced" if traced else "untraced"
            print(f"{label} pass seconds: {' '.join(f'{w:.4f}' for w in walls[traced])}")
    print(f"timed passes {len(walls[False])}; job samples {len(latencies)}; "
          f"failed_frac {len(failures) / attempted} ({len(failures)}/{attempted})")

    if args.trace:
        values = {k: statistics.median(m[k] for m in pass_metrics) for k in pass_metrics[0]}
        values["trace.overhead_frac"] = (statistics.median(walls[True])
                                         / statistics.median(walls[False]) - 1)
        for i, counts in enumerate(pass_counts[1:], 1):
            flag_differences(pass_counts[0], counts, f"traced pass {i}")
        compare_counts(args, pass_counts[0])
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        values = {
            "wall_s": wall_s,
            "job_p50_ms": percentile(latencies, 50) * 1e3,
            "job_p90_ms": percentile(latencies, 90) * 1e3,
            "ok_frac": 1 - len(failures) / attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(f"raw (uncalibrated) wall_s {statistics.median(raw_walls)} "
              f"job_p50_ms {percentile(raw_latencies, 50) * 1e3} "
              f"job_p90_ms {percentile(raw_latencies, 90) * 1e3} setup_s {raw_setup_s}")
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} {values[name]} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def flag_differences(first: dict, later: dict, where: str) -> None:
    for key in sorted(set(first) | set(later)):
        if first.get(key) != later.get(key):
            print(f"FLAG count {key} differs in {where}: {first.get(key)} then {later.get(key)}")


def compare_counts(args, counts: dict) -> None:
    """Flag any call count that differs from the first traced run of this
    workload and seed in this checkout; the first run records its counts."""
    path = OUT / f"counts-{args.workload}-seed{args.seed}.json"
    if path.exists():
        flag_differences(json.loads(path.read_text(encoding="utf-8")), counts,
                         "this run against an earlier traced run")
    else:
        path.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
