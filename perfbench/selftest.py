"""Self-test of the benchmark's own bookkeeping.

    python3 perfbench/selftest.py

Shows that a corrupted output, a raising job, a job over its time limit, a
tampered certificate and tampered construct artifacts are each counted as
failed, and that the input digest follows the seed. Exits 0 when every case behaves.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import time
from fractions import Fraction

import run


def expect(label: str, ok: bool, problems: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        problems.append(label)


def main() -> int:
    run.import_limprof()
    import workloads

    problems: list[str] = []
    workdir = run.OUT / "selftest"
    probe = run.SpeedProbe()
    try:
        jobs = workloads.build_profile(workloads.PINNED_SEED, workdir).jobs[:6]
        runs, failed = run.run_pass(jobs, workdir / "out", probe)
        expect("six profile jobs pass unchanged", not failed, problems)

        def corrupted():
            prof = jobs[0].run()
            return dataclasses.replace(prof, achieved=prof.achieved[1:])

        def raises():
            raise ValueError("deliberate")

        broken = [dataclasses.replace(jobs[0], run=corrupted),
                  dataclasses.replace(jobs[1], run=raises),
                  dataclasses.replace(jobs[2], run=lambda: time.sleep(5))] + jobs[3:]
        runs, failed = run.run_pass(broken, workdir / "out", probe, limit_s=0.5)
        names = [name for name, _ in failed]
        expect("corrupted, raising and overlong jobs fail; the rest pass",
               names == [j.name for j in broken[:3]], problems)
        expect("failed_frac counts them: 3/6", len(failed) / len(runs) == 0.5, problems)
        for name, reason in failed:
            print(f"     {name}: {reason}")

        certify = workloads.build_certify(1, workdir).jobs
        construct, verify = certify[2], certify[3]  # interval (2, 1)
        cert = workdir / "out" / "interval-2-1.cert.json"

        def tamper():
            text = cert.read_text(encoding="utf-8")
            cert.write_text(text.replace('"high": 3', '"high": 4'), encoding="utf-8")

        tampering = workloads.Job("tamper", tamper, lambda _: None)
        runs, failed = run.run_pass([construct, tampering, verify], workdir / "out", probe)
        expect("a tampered certificate fails verification",
               [name for name, _ in failed] == [verify.name], problems)

        by_name = {job.name: job for job in certify}
        for tag, edit in (("independent-3-3", drop_an_atom),
                          ("spaceable-2-8-dyadic", double_a_value)):
            construct = by_name[f"construct {tag}"]
            artifact = workdir / "out" / f"{tag}.json"
            tampering = workloads.Job("tamper", lambda a=artifact, e=edit: rewrite(a, e),
                                      lambda _: None)
            runs, failed = run.run_pass([construct], workdir / "out", probe)
            expect(f"construct {tag} passes unchanged", not failed, problems)
            runs, failed = run.run_pass([construct, tampering], workdir / "out", probe)
            expect(f"a tampered {tag} artifact fails its construct check",
                   [name for name, _ in failed] == [construct.name], problems)
            for name, reason in failed:
                print(f"     {name}: {reason}")

        for name, build in workloads.BUILDERS.items():
            a = build(1, workdir / "a").digest()
            b = build(1, workdir / "b").digest()
            c = build(2, workdir / "c").digest()
            expect(f"{name}: same seed same digest, other seed other digest",
                   a == b != c, problems)
    finally:
        probe.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if problems else 0


def rewrite(path, edit) -> None:
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def drop_an_atom(artifact: dict) -> None:
    artifact["atoms"].pop()


def double_a_value(artifact: dict) -> None:
    values = artifact["rows"][0]["values"]
    values[0] = str(2 * Fraction(values[0]))


if __name__ == "__main__":
    sys.exit(main())
