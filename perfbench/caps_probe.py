"""One-shot probe of the resource caps limprof advertises. Not a workload.

    python3 perfbench/caps_probe.py

Each edge input that a cap admits runs alone in a fresh child process with
a limit of LIMIT_S seconds; the probe prints one JSON line per edge,
"finished" or "timeout" with its seconds. The builders named by the caps
are probed, and for odd_space(6) and independent_family(10, 3) also the
certificates the CLI builds from them. Nothing is gated on the result.
"""

from __future__ import annotations

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 20.0

# edge -> the cap that admits it
EDGES = {
    "interval_space(4,3)": "GENERIC_CAP = 9 admits n+d <= 9",
    "interval_space(8,1)": "GENERIC_CAP = 9 admits n+d <= 9",
    "profile 3x12": "PROFILE_CAP = 12 admits 12 columns",
    "odd_space(6)": "ODD_CAP = 6 admits k = 6",
    "independent_family(10,3)": "FAMILY_CAP = 100000 admits 3^10 atoms",
    "odd certificate k=6": "ODD_CAP = 6 admits odd_space(6)",
    "independent certificate (10,3)": "FAMILY_CAP = 100000 admits 3^10 atoms",
}


def run_edge(name: str) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from limprof.builders import independent_family, interval_space, odd_space
    from limprof.certificates import build_independent_certificate, build_odd_certificate
    from limprof.engine import profile
    from limprof.kernel import RatMatrix

    if name == "interval_space(4,3)":
        interval_space(4, 3)
    elif name == "interval_space(8,1)":
        interval_space(8, 1)
    elif name == "profile 3x12":
        rng = random.Random("caps/3x12")
        cols: list[tuple[int, ...]] = []
        while len(cols) < 12:
            c = tuple(rng.randint(-50, 50) for _ in range(3))
            if c not in cols:
                cols.append(c)
        profile(RatMatrix.from_rows([[c[i] for c in cols] for i in range(3)]))
    elif name == "odd_space(6)":
        odd_space(6)
    elif name == "independent_family(10,3)":
        independent_family(10, 3)
    elif name == "odd certificate k=6":
        build_odd_certificate(6)
    elif name == "independent certificate (10,3)":
        build_independent_certificate(10, 3)
    else:
        raise SystemExit(f"unknown edge {name!r}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--edge", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.edge:
        run_edge(args.edge)
        return 0
    for name, cap in EDGES.items():
        t0 = time.perf_counter()
        try:
            done = subprocess.run([sys.executable, __file__, "--edge", name], cwd=ROOT,
                                  timeout=LIMIT_S).returncode == 0
            status = "finished" if done else "error"
        except subprocess.TimeoutExpired:
            status = "timeout"
        print(json.dumps({"edge": name, "cap": cap, "status": status,
                          "seconds": round(time.perf_counter() - t0, 2),
                          "limit_s": LIMIT_S}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
