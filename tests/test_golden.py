"""Golden certificates: one stored file per claim (both polygon modes).

Each file under ``tests/data/golden/`` was written by an earlier version of
limprof. Rebuilding it through its public builder must reproduce the file
byte for byte, and ``verify_certificate`` must pass on the stored file, so a
refactor can neither change what a certificate says nor stop an old
certificate from verifying.
"""

import json
from pathlib import Path

import pytest

from limprof.certificates import (
    Certificate,
    build_escape_certificate,
    build_independent_certificate,
    build_interval_certificate,
    build_odd_certificate,
    build_polygon_certificate,
    build_refute_certificate,
    build_spaceable_certificate,
    verify_certificate,
)
from limprof.kernel import RatMatrix
from limprof.sequences import InfinitudeRelation, step_sequence

GOLDEN = Path(__file__).parent / "data" / "golden"


def _escape():
    x = step_sequence([("a", 0), ("b", 1)])
    y = step_sequence((f"t{j}", j) for j in range(5))
    rel = InfinitudeRelation.nested(x.partition, y.partition, [0, 0, 0, 1, 1])
    return build_escape_certificate(x, y, rel, [2, 5])


BUILDS = {
    "interval-2-1": lambda: build_interval_certificate(2, 1),
    "interval-4-2": lambda: build_interval_certificate(4, 2),
    "odd-2": lambda: build_odd_certificate(2),
    "odd-3": lambda: build_odd_certificate(3),
    "polygon-3-exact": lambda: build_polygon_certificate(3),
    "polygon-5-approximate": lambda: build_polygon_certificate(5),
    "independent-3-2": lambda: build_independent_certificate(3, 2),
    "spaceable-2-4": lambda: build_spaceable_certificate(2, 4),
    "refute-2x3": lambda: build_refute_certificate(
        RatMatrix.from_rows([[1, 2, 0], [0, 1, 3]]), 3, 0),
    "escape-2x5": _escape,
}


def test_golden_set_covers_every_claim():
    claims = {json.loads((GOLDEN / f"{name}.cert.json").read_text())["claim"]
              for name in BUILDS}
    assert claims == {"interval-profile", "odd-profile", "polygon-profile",
                      "independent-family", "spaceable-rows", "refute-interval",
                      "escape"}
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(
        f"{name}.cert.json" for name in BUILDS)


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_golden_certificate_rebuilds_byte_for_byte(name):
    stored = (GOLDEN / f"{name}.cert.json").read_text(encoding="utf-8")
    assert BUILDS[name]().dumps() == stored


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_golden_certificate_verifies(name):
    data = json.loads((GOLDEN / f"{name}.cert.json").read_text(encoding="utf-8"))
    ok, mismatches = verify_certificate(Certificate.from_json(data))
    assert ok, mismatches
