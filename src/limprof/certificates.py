"""Self-contained, re-verifiable certificates.

A certificate embeds its inputs by value, the witnesses found, and a
verification transcript. Verification rebuilds the whole certificate from
the embedded data alone with the same deterministic code paths, then demands
equality of the JSON, key by key. No timestamps, no environment.

``CLAIMS`` maps each claim name to its payload, a function of the
certificate's own JSON ``params`` and of its ``inputs`` read into objects,
that returns the witnesses and the verification transcript (or None when no
witness exists), and to readers of those params and inputs. Building a
certificate makes the inputs, reads them and runs the payload; verifying
reads the stored params and inputs once, runs the same payload, writes the
inputs back as construct writes them and diffs the rebuilt certificate
against what is stored. Construct and verify therefore run one code path on
one set of data. The odd-profile payload accepts only ``odd_space(k)``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, product
from operator import itemgetter, mul
from typing import Mapping

from . import __version__
from .builders import (
    independent_family,
    interval_space,
    odd_space,
    polygon_space,
    spaceable_rows,
)
# multiplicity and normalize_primitive: no caller here, but perfbench wraps them here
from .engine import (
    PROFILE_CAP,
    matrix_from_json,
    matrix_to_json,
    multiplicity,
    profile,
    refute_interval,
)
from .errors import LimprofError, ShapeError
from .geometry import approx_direction_census, escape
from .kernel import (
    RatMatrix,
    integer_multiple,
    integer_vectors,
    json_object,
    json_value,
    normalize_primitive,
    rat_str,
    vec,
)
from .sequences import InfinitudeRelation, StepSequence, combine


_encode_str = json.encoder.encode_basestring
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_str(x: float) -> str:
    r = float.__repr__(x)
    return _NONFINITE.get(r, r)


# How json writes each scalar type (exact types only; subclasses go to json).
_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_str,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_ARRAYS = frozenset((list, tuple))


class _Indents(dict):
    """level -> a newline and the indent of that level."""

    def __missing__(self, level: int) -> str:
        text = self[level] = "\n" + "  " * level
        return text


class _Unsupported(Exception):
    """A value the fast walk leaves to json: a non-str key or another type."""


def _scalar_strs(values) -> list[str] | None:
    """The JSON text of each value, or None unless every value is a scalar.
    One type is encoded over one ``map``: finite floats by ``float.__repr__``,
    and the other types once per distinct value, so repeated values (sign
    patterns, counts) share one string."""
    types = set(map(type, values))
    if len(types) == 1:
        (t,) = types
        if t is float:  # not by distinct value: 0.0 == -0.0
            strs = list(map(float.__repr__, values))
            return strs if _NONFINITE.keys().isdisjoint(strs) else list(map(_float_str, values))
        encoder = _SCALARS.get(t)
        if encoder is None:
            return None
        distinct = set(values)
        return list(map(dict(zip(distinct, map(encoder, distinct))).__getitem__, values))
    if types.issubset(_SCALARS):
        return [_SCALARS[type(x)](x) for x in values]
    return None


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)`` plus
    a newline, byte for byte.

    With ``indent`` set, json runs its pure-Python encoder. This walk builds
    the same text with one ``str.join`` per container: a list of scalars is
    encoded over one ``map`` per type, and a list of equal-length scalar rows
    (a matrix, a list of pairs) column by column. On anything but str-keyed
    dicts, lists, tuples, str, int, float, bool and None (exact types), or on
    a cycle, it returns json's own result (or raises json's exception) for
    the whole object."""
    indent = _Indents()

    def encode(o, level: int) -> str:
        t = type(o)
        if t is dict:
            return encode_dict(o, level)
        if t in _ARRAYS:
            return encode_list(o, level)
        scalar = _SCALARS.get(t)
        if scalar is None:
            raise _Unsupported
        return scalar(o)

    def encode_dict(d: dict, level: int) -> str:
        if not d:
            return "{}"
        if not all(type(k) is str for k in d):
            raise _Unsupported
        inner = level + 1
        body = ("," + indent[inner]).join(
            [_encode_str(k) + ": " + encode(d[k], inner) for k in sorted(d)])
        return "{" + indent[inner] + body + indent[level] + "}"

    def encode_rows(rows, level: int) -> str | None:
        """The items of a list of equal-length, nonempty lists or tuples of
        scalars, encoded column by column; None for any other list."""
        if not _ARRAYS.issuperset(map(type, rows)):
            return None
        widths = set(map(len, rows))
        if len(widths) != 1 or not rows[0]:
            return None
        columns = []
        for j in range(widths.pop()):
            strs = _scalar_strs(list(map(itemgetter(j), rows)))
            if strs is None:
                return None
            columns.append(strs)
        row_sep = indent[level] + "]," + indent[level] + "["
        cells = ("," + indent[level + 1]).join
        return ("[" + indent[level + 1]
                + (row_sep + indent[level + 1]).join(map(cells, zip(*columns)))
                + indent[level] + "]")

    def encode_list(items, level: int) -> str:
        if not items:
            return "[]"
        inner = level + 1
        strs = _scalar_strs(items)
        if strs is not None:
            body = ("," + indent[inner]).join(strs)
        else:
            body = (encode_rows(items, inner)
                    or ("," + indent[inner]).join([encode(x, inner) for x in items]))
        return "[" + indent[inner] + body + indent[level] + "]"

    try:
        return encode(obj, 0) + "\n"
    except (_Unsupported, RecursionError):
        return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


@dataclass(frozen=True)
class Certificate:
    claim: str
    mode: str
    params: dict
    inputs: dict
    witnesses: dict
    verification: dict
    tool_version: str = __version__

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "mode": self.mode,
            "params": self.params,
            "inputs": self.inputs,
            "witnesses": self.witnesses,
            "verification": self.verification,
            "toolVersion": self.tool_version,
        }

    def dumps(self) -> str:
        return canonical_json(self.to_json())

    @classmethod
    def from_json(cls, data: Mapping) -> "Certificate":
        """The certificate of a JSON object: claim and mode strings, params,
        inputs, witnesses and verification objects, and toolVersion (this
        version when absent). Other keys are left to verify_certificate."""
        fields = json_object(data, ("claim", "mode", "params", "inputs", "witnesses",
                                    "verification"), exact=False)
        fields = map(json_value, fields, (str, str, dict, dict, dict, dict))
        return cls(*fields, tool_version=str(data.get("toolVersion", __version__)))

    @property
    def holds(self) -> bool:
        """Did the verification conclude the claim is true?"""
        return bool(self.verification.get("pass", False))


# ---------------------------------------------------------------------------
# claim payloads: (params, inputs) -> (witnesses, verification), or None when
# no witness exists. They read only the certificate's own JSON data, so
# construct and verify run the same code on the same data.


def _interval(params: Mapping, inputs: Mapping) -> tuple[dict, dict]:
    n, d = int(params["n"]), int(params["d"])
    prof = profile(inputs["matrix"])
    prof_json = prof.to_json()
    within = all(n <= c <= n + d for c in prof.achieved)
    endpoints = n in prof.achieved and (n + d) in prof.achieved
    verification = {
        "profile": prof_json,
        "low": n,
        "high": n + d,
        "withinBounds": within,
        "endpointsAchieved": endpoints,
        "pass": within and endpoints,
    }
    return prof_json["witnesses"], verification


def _odd(params: Mapping, inputs: Mapping) -> tuple[dict, dict]:
    """The counts of ``odd_space(k)``, every odd number from 3 to 3^k, each measured
    on its witness: from ``profile`` while PROFILE_CAP admits it, else closed-form."""
    k = int(params["k"])
    mat = inputs["matrix"]
    if mat != odd_space(k):  # odd_space refuses k past ODD_CAP or below 1
        raise ShapeError(f"this {mat.rows} x {mat.cols} matrix is not odd_space({k})")
    if mat.cols <= PROFILE_CAP:
        witnesses = profile(mat).to_json()["witnesses"]
        method = "exact-profile"
    else:
        # count 2(m + t) + 1: the head (1, 3, ..., 3^(j-1)) takes every value in
        # [-m, m] on the sign vectors, and t <= 2m + 1 widens that to [-m-t, m+t]
        witnesses = {}
        for j in range(k):
            m, head = (3**j - 1) // 2, [str(3**i) for i in range(j)]
            for t in range(1, 2 * m + 2):
                witnesses[str(2 * (m + t) + 1)] = head + [str(t)] + ["0"] * (k - j - 1)
        method = "sign-matrix"
    # on the integer columns: a positive scale keeps symmetry, zero and size
    cols = integer_vectors(mat.columns())
    value_sets = [{sum(map(mul, alpha, c)) for c in cols}
                  for alpha in map(integer_multiple, map(vec, witnesses.values()))]
    counts = list(map(len, value_sets))
    all_odd = all(c % 2 == 1 for c in counts)
    at_least = all(c >= 3 for c in counts)
    sym_ok = all(values == {-v for v in values} for values in value_sets)
    zero_ok = all(0 in values for values in value_sets)
    exact = counts == list(map(int, witnesses)) == list(range(3, 3**k + 1, 2))
    verification = {
        "method": method,
        "counts": counts,
        "allOdd": all_odd,
        "allAtLeastThree": at_least,
        "valueSetsSymmetric": sym_ok,
        "valueSetsContainZero": zero_ok,
        "pass": all_odd and at_least and sym_ok and zero_ok and exact,
    }
    return witnesses, verification


def _polygon(params: Mapping, inputs: Mapping) -> tuple[dict, dict]:
    n = int(params["n"])
    expected = sorted({n, n + 1, 2 * n})
    if "matrix" in inputs:
        counts = list(profile(inputs["matrix"]).achieved)
    else:
        counts = list(approx_direction_census(inputs["vertices"], tol=inputs["tolerance"]))
    return {}, {"counts": counts, "expected": expected, "pass": counts == expected}


def _independent(params: Mapping, inputs: Mapping) -> tuple[dict, dict]:
    k, split = int(params["k"]), int(params["split"])
    fam = independent_family(k, split)
    signs = (0, 1) if split == 2 else (-1, 0, 1)
    universe = list(range(len(fam.atoms)))
    pieces_partition = all(
        sorted(chain.from_iterable(fam.piece(g, s) for s in signs)) == universe
        for g in range(k)
    )
    hits = Counter(fam.atoms)
    full_patterns_single = all(hits[pattern] == 1 for pattern in product(signs, repeat=k))
    return {}, {
        "atomCount": len(fam.atoms),
        "piecesPartitionUniverse": pieces_partition,
        "fullPatternsHitExactlyOneAtom": full_patterns_single,
        "pass": pieces_partition and full_patterns_single,
    }


def _spaceable(params: Mapping, inputs: Mapping) -> tuple[dict, dict]:
    n_max = int(params["nMax"])
    fam = spaceable_rows(n_max, int(params["kMax"]), str(params["flavor"]))
    supports = [{a.id for a, v in zip(row.partition.atoms, row.values) if v != 0}
                for row in fam.rows]
    disjoint = all(
        not (supports[i] & supports[j])
        for i in range(len(supports))
        for j in range(i + 1, len(supports))
    )
    expected_sup = max(fam.ladder)
    row_sups_ok = all(row.sup_value() == expected_sup for row in fam.rows)
    ones = fam.combination([Fraction(1)] * n_max)
    return {}, {
        "ladder": [rat_str(v) for v in fam.ladder],
        "rows": [row.to_json() for row in fam.rows],
        "disjointSupports": disjoint,
        "supValue": rat_str(expected_sup),
        "rowSupsMatch": row_sups_ok,
        "allOnesCombinationSup": rat_str(ones.sup_value()),
        "pass": disjoint and row_sups_ok and ones.sup_value() == expected_sup,
    }


def _refute(params: Mapping, inputs: Mapping) -> tuple[dict, dict]:
    n, d = int(params["n"]), int(params["d"])
    w = refute_interval(inputs["matrix"], n, d)
    verification = {
        "multiplicity": w.multiplicity,
        "low": n,
        "high": n + d,
        "escapes": w.escapes,
        "side": "below" if w.multiplicity < n else "above",
        "pass": w.escapes,
    }
    return {"alpha": [rat_str(x) for x in w.alpha]}, verification


def _escape(params: Mapping, inputs: Mapping) -> tuple[dict, dict] | None:
    x, y, rel = inputs["x"], inputs["y"], inputs["relation"]
    w = escape(x, y, rel, params["forbidden"])
    if w is None:
        return None
    recombined = combine([w.alpha, w.beta], [x, y], rel)
    witnesses = {
        "alpha": rat_str(w.alpha),
        "beta": rat_str(w.beta),
        "classCount": w.class_count,
        "forbidden": list(w.forbidden),
        "points": [[rat_str(px), rat_str(py)] for px, py in w.points],
    }
    verification = {
        "classCount": w.class_count,
        "recombinedCount": recombined.num_atoms,
        "outsideForbidden": w.class_count not in w.forbidden,
        "recombinationMatches": recombined.num_atoms == w.class_count,
        "pass": (w.class_count not in w.forbidden)
        and recombined.num_atoms == w.class_count,
    }
    return witnesses, verification


# Readers of stored params and inputs: each takes a JSON value and raises on
# a malformed one. A param reader returns the JSON construct would store for
# that data; an input is a (read, write) pair, where read returns the object
# the payload takes and write the JSON construct would store for it.


_int, _str, _float, _list = (partial(json_value, kind=kind) for kind in (int, str, float, list))


def _vertex(value) -> tuple[float, float]:
    if len(_list(value)) != 2:
        raise ShapeError(f"a vertex is two floats, not {len(value)} values")
    return tuple(map(_float, value))


_MATRIX = {"matrix": (matrix_from_json, matrix_to_json)}
_VERTICES = {"vertices": (lambda v: list(map(_vertex, _list(v))),
                          lambda vs: [[x, y] for x, y in vs]),
             "tolerance": (_float, _float)}
_SEQUENCE = (StepSequence.from_json, StepSequence.to_json)
_PAIR = {"x": _SEQUENCE, "y": _SEQUENCE,
         "relation": (InfinitudeRelation.from_json, InfinitudeRelation.to_json)}


def _mode(modes: Mapping, inputs: Mapping) -> str:
    """The first mode all of whose input keys are present, else the first."""
    return next((mode for mode, keys in modes.items() if keys.keys() <= inputs.keys()),
                next(iter(modes)))


# claim -> (payload, readers of its params, readers and writers of its inputs
# per mode; polygon: a matrix is exact, vertices approximate)
CLAIMS = {
    "interval-profile": (_interval, {"n": _int, "d": _int}, {"exact": _MATRIX}),
    "odd-profile": (_odd, {"k": _int}, {"exact": _MATRIX}),
    "polygon-profile": (_polygon, {"n": _int}, {"exact": _MATRIX, "approximate": _VERTICES}),
    "independent-family": (_independent, {"k": _int, "split": _int}, {"exact": {}}),
    "spaceable-rows": (_spaceable, {"nMax": _int, "kMax": _int, "flavor": _str},
                       {"exact": {}}),
    "refute-interval": (_refute, {"n": _int, "d": _int}, {"exact": _MATRIX}),
    "escape": (_escape, {"forbidden": lambda v: sorted(set(map(_int, _list(v))))},
               {"exact": _PAIR}),
}


# ---------------------------------------------------------------------------
# builders: make the inputs, then run the claim's payload on them, read back


def _certify(claim: str, params: dict, inputs: dict) -> Certificate | None:
    run, _, modes = CLAIMS[claim]
    mode = _mode(modes, inputs)
    payload = run(params, _read_inputs(modes[mode], inputs))
    if payload is None:
        return None
    witnesses, verification = payload
    return Certificate(claim, mode, params, inputs, witnesses, verification)


def build_interval_certificate(n: int, d: int) -> Certificate:
    return _certify("interval-profile", {"n": n, "d": d},
                    {"matrix": matrix_to_json(interval_space(n, d))})


def build_odd_certificate(k: int) -> Certificate:
    return _certify("odd-profile", {"k": k}, {"matrix": matrix_to_json(odd_space(k))})


def build_polygon_certificate(n: int) -> Certificate:
    poly = polygon_space(n)
    if poly.mode == "exact":
        inputs = {"matrix": matrix_to_json(poly.matrix)}
    else:
        inputs = {"vertices": [[p[0], p[1]] for p in poly.vertices],
                  "tolerance": poly.tolerance}
    return _certify("polygon-profile", {"n": n}, inputs)


def build_independent_certificate(k: int, split: int = 2) -> Certificate:
    return _certify("independent-family", {"k": k, "split": split}, {})


def build_spaceable_certificate(n_max: int, k_max: int, flavor: str = "dyadic") -> Certificate:
    return _certify("spaceable-rows", {"nMax": n_max, "kMax": k_max, "flavor": flavor}, {})


def build_refute_certificate(mat: RatMatrix, n: int, d: int) -> Certificate:
    return _certify("refute-interval", {"n": n, "d": d}, {"matrix": matrix_to_json(mat)})


def build_escape_certificate(x: StepSequence, y: StepSequence,
                             rel: InfinitudeRelation, forbidden) -> Certificate | None:
    """None when no combination escapes ``forbidden``."""
    return _certify("escape", {"forbidden": sorted(set(int(f) for f in forbidden))},
                    {"x": x.to_json(), "y": y.to_json(), "relation": rel.to_json()})


# ---------------------------------------------------------------------------
# verification


def _diff_paths(a, b, prefix: str, out: list[str], limit: int = 8) -> None:
    """Lines naming the JSON paths where a and b differ, values of different
    JSON types included (1 and 1.0, 1 and true, "1" and 1)."""
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            _diff_paths(a.get(key), b.get(key), f"{prefix}.{key}" if prefix else key, out, limit)
        return
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _diff_paths(x, y, f"{prefix}[{i}]", out, limit)
        return
    if type(a) is not type(b) or a != b:
        out.append(f"{prefix}: stored {a!r} != recomputed {b!r}")


def _read(readers: Mapping, stored: Mapping, where: str) -> dict:
    missing = sorted(readers.keys() - stored.keys())
    if missing:
        raise ShapeError(f"{where} lacks {', '.join(missing)}")
    return {key: read(stored[key]) for key, read in readers.items()}


def _read_inputs(codecs: Mapping, stored: Mapping) -> dict:
    return _read({key: read for key, (read, _) in codecs.items()}, stored, "inputs")


def verify_certificate(cert: Certificate, stored: Mapping | None = None) -> tuple[bool, list[str]]:
    """Rebuild the certificate as construct writes it from the stored params
    and inputs (mode, params, inputs, witnesses, transcript) and report
    every JSON path where ``stored``, the JSON object the certificate was
    read from (default cert.to_json()), differs, extra keys included; one
    without toolVersion is read as this version. Also fails when the
    recomputed transcript concludes the claim is false. Another limprof
    version or an unknown claim raises LimprofError, and malformed params
    or inputs ShapeError."""
    if cert.tool_version != __version__:
        raise LimprofError(
            f"certificate written by limprof {cert.tool_version!r}, "
            f"this is {__version__!r}"
        )
    if cert.claim not in CLAIMS:
        raise LimprofError(f"unknown claim {cert.claim!r}")
    run, param_readers, modes = CLAIMS[cert.claim]
    mode = _mode(modes, cert.inputs)
    params = _read(param_readers, cert.params, "params")
    codecs = modes[mode]
    objects = _read_inputs(codecs, cert.inputs)
    payload = run(params, objects)
    if payload is None:
        return False, [f"{cert.claim}: no witness found on recomputation"]
    witnesses, verification = payload
    stored = cert.to_json() if stored is None else stored
    inputs = {key: write(objects[key]) for key, (_, write) in codecs.items()}
    rebuilt = Certificate(cert.claim, mode, params, inputs, witnesses, verification).to_json()
    if "toolVersion" not in stored:
        del rebuilt["toolVersion"]
    rebuilt_text = json.dumps(rebuilt, sort_keys=True)
    mismatches: list[str] = []
    try:  # equal text means equal JSON, types included: no walk needed
        same = json.dumps(stored, sort_keys=True) == rebuilt_text
    except (TypeError, ValueError):  # not JSON, so not what construct writes
        same = False
    if not same:
        _diff_paths(stored, json.loads(rebuilt_text), "", mismatches)
    if not verification.get("pass", False):
        mismatches.append("verification.pass: claim checks failed on recomputation")
    return not mismatches, mismatches
