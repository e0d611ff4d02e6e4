"""Batch front door: JSON analysis requests in, JSON verdicts and CSV out.

One command per request.  Mathematical verdicts (a failed hypothesis, a
non-contraction) still exit 0; nonzero exits mean the tool itself failed:

    2  request violates the schema (message names the field path)
    3  request is well-formed but semantically invalid
    4  numerical failure (singular block, truncation too small, overflow,
       a LAPACK routine that does not converge)
    5  output could not be written

The schema is the whole request contract.  Each radii ``kind``, block
``kind``, ``simdiag`` source ``kind`` and ``reduce`` detector is one closed
form: it admits its own fields only (a field of another form is an unknown
field) and requires the ones it needs.  A sequence is a preset or explicit
``prefix``/``tail`` data; ``szego`` alone takes a ``power``, and needs it.
Grid sizes (1x1 for ``rank-one-defect``, 2x2 for ``cascade`` and a block
source) and sizes that would exhaust memory are schema bounds too, so the
``*_from_json`` functions below only translate.  The one shape the schema
cannot state, ragged matrix rows, exits 3.  The schema is written as JSON
Schema dicts and compiled once, at import, into the checks that
:func:`parse_request` runs (:func:`_compile`).

``simdiag`` calls one similarity route per source kind: a kernel source
takes :func:`similarity.kernel_source_diagnostic` (profile and witness from
one series pass), a block source :func:`similarity.det_ratio_profile` (one
frame pass); ``ex-commutator`` calls :func:`similarity.commutator_example`.
Each route returns a diagnostic that carries its witness, if it has one: the
runners only translate.  A request that omits ``N`` runs at the library
default (``shifts.DEFAULT_ORDER``; ``ex-commutator`` at 160) in any environment.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import numbers
import operator
import re
import sys
from dataclasses import dataclass

import numpy as np

from . import blockops, rkhs, shifts, similarity
from .errors import (
    CdlabError,
    ConfigurationError,
    DimensionError,
    DomainError,
    SingularityError,
    StructureError,
    TruncationError,
)
from .rules import RationalRule

COMMANDS = ("hypercontract", "shields", "curvature", "contraction", "reduce", "simdiag", "ex-commutator")

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SEMANTIC = 3
EXIT_NUMERICAL = 4
EXIT_IO = 5

_NUMBER = {"type": "number"}
_ORDER = {"type": "integer", "minimum": 1}
_N_FIELD = {"type": "integer", "minimum": 8, "maximum": 4096}
#: Radii per request: 4096 near the analytic cap take seconds and hundreds of MiB.
_MAX_RADII = 4096
#: A dyadic exponent: past ``k = 53``, ``1 - 2^-k`` rounds to 1, a radius every command rejects.
_DYADIC_K = {**_ORDER, "maximum": 53}
#: A tail coefficient must convert to a float exactly.
_COEFF = {"type": "integer", "minimum": -2 ** 53, "maximum": 2 ** 53}
#: Tail polynomials: the exact root reader's time grows as a power of the degree (up to about 0.5 s for a
#: ``shields`` pair of 16-coefficient tails), and a 200-coefficient tail overflows its float weights at index 63.
_TAIL_POLY = {"type": "array", "items": _COEFF, "minItems": 1, "maxItems": 16}

#: Named constructors per sequence type; ``szego`` takes a power, the others none.
_PRESETS = {
    shifts.WeightSequence: {"szego": shifts.szego, "hardy": shifts.hardy, "bergman": shifts.bergman},
    rkhs.DiagonalKernel: {"szego": rkhs.szego_power_coeffs},
}


def _closed(properties: dict, required=()) -> dict:
    """A form that admits exactly ``properties`` and needs ``required`` of them."""
    return {"properties": properties, "required": list(required), "additionalProperties": False}


_TAIL_SCHEMA = {"type": "object", **_closed({"p": _TAIL_POLY, "q": _TAIL_POLY}, ["p"])}


def _tagged(key: str, forms: dict, types="object") -> dict:
    """An object whose ``key`` picks one closed form.

    ``forms`` maps each value of ``key``, most frequent first, to the
    ``(properties, required)`` of its form.  The forms make an if/else chain
    whose final ``else`` is the last form: the enum on ``key`` has already
    rejected every other value.  (A ``True`` subschema costs the validator
    nothing; ``{}`` costs a descent.)
    """
    *head, last = [(value, _closed({key: True, **properties}, required))
                   for value, (properties, required) in forms.items()]
    chain = last[1]
    for value, form in reversed(head):
        chain = {"if": {"properties": {key: {"enum": [value]}}}, "then": form, "else": chain}
    return {"type": types, "properties": {key: {"enum": list(forms)}}, "required": [key], **chain}


def _sequence_schema(cls) -> dict:
    """The ``szego`` preset with its power, another preset without one, or
    explicit ``prefix``/``tail`` data with at least one of the two."""
    explicit = {**_closed({"prefix": {"type": "array", "items": _NUMBER}, "tail": _TAIL_SCHEMA}),
                "minProperties": 1}
    return {
        "type": "object",
        "if": {"required": ["preset"], "properties": {"preset": {"enum": ["szego"]}}},
        "then": _closed({"preset": True, "power": _ORDER}, ["power"]),
        "else": {"if": {"required": ["preset"]},
                 "then": _closed({"preset": {"enum": list(_PRESETS[cls])}}),
                 "else": explicit},
    }


_WEIGHTS_SCHEMA = _sequence_schema(shifts.WeightSequence)
_KERNEL_SCHEMA = _sequence_schema(rkhs.DiagonalKernel)

_RADII_SCHEMA = _tagged("kind", {
    "boundary_dyadic": ({"k_min": _DYADIC_K, "k_max": _DYADIC_K}, ()),
    "linear": ({"start": _NUMBER, "stop": _NUMBER, "count": {**_ORDER, "maximum": _MAX_RADII}},
               ("start", "stop", "count")),
    "explicit": ({"values": {"type": "array", "items": _NUMBER, "minItems": 1, "maxItems": _MAX_RADII}},
                 ("values",)),
})

_MATRIX = {"type": "array", "items": {"type": "array", "items": _NUMBER}}

#: One grid cell: a block, or null for a zero block.
_BLOCK_SCHEMA = _tagged("kind", {
    "shift": ({"weights": _WEIGHTS_SCHEMA, "scale": _NUMBER}, ("weights",)),
    "diagonal": ({"values": {"type": "array", "items": _NUMBER}}, ()),
    "zero": ({}, ()),
    "matrix": ({"real": _MATRIX, "imag": _MATRIX}, ("real",)),
}, types=["object", "null"])


def _operator_schema(size: int | None = None) -> dict:
    """A grid of blocks, exactly ``size x size`` when ``size`` is given."""
    bounds = {"minItems": 1} if size is None else {"minItems": size, "maxItems": size}
    grid = {"type": "array", **bounds, "items": {"type": "array", **bounds, "items": _BLOCK_SCHEMA}}
    return {"type": "object", **_closed({"grid": grid, "N": _N_FIELD}, ["grid"])}


_OPERATOR_SCHEMA = _operator_schema()

_COMMAND = {"command": {"enum": list(COMMANDS)}}
_REDUCE = {**_COMMAND, "operator": _OPERATOR_SCHEMA, "N": _N_FIELD}
#: ``shields`` takes one ``horizon`` ``H``, read as the horizons ``H, 2H, 4H``, or three ``horizons``: never both.
_SHIELDS = {"a": _WEIGHTS_SCHEMA, "b": _WEIGHTS_SCHEMA, "threshold": {"type": "number", "exclusiveMinimum": 1.0}}
_HORIZON = {"type": "integer", "minimum": 2, "maximum": 2 ** 20}
_HORIZONS = {"type": "array", "items": {**_HORIZON, "maximum": 2 ** 22}, "minItems": 3, "maxItems": 3}
#: Every ``simdiag`` request needs these; its ``source`` is checked on its own below.
_SIMDIAG = {"source": True, "kernel": _KERNEL_SCHEMA, "multiplicity": _ORDER, "radii": _RADII_SCHEMA}


def _command(properties: dict, required=()) -> dict:
    """The closed form of one command's request."""
    return {"type": "object", **_closed({**_COMMAND, **properties}, ["command", *required])}


_SCHEMAS = {
    "hypercontract": _command({"shift": _WEIGHTS_SCHEMA, "order": _ORDER, "N": _N_FIELD}, ["shift", "order"]),
    "shields": {"if": {"required": ["horizons"]},
                "then": _command({**_SHIELDS, "horizons": _HORIZONS}, ["a", "b", "horizons"]),
                "else": _command({**_SHIELDS, "horizon": _HORIZON}, ["a", "b", "horizon"])},
    # series is the default method
    "curvature": _command({"method": {"enum": ["series", "finite-difference"]}, "kernel": _KERNEL_SCHEMA,
                           "radii": _RADII_SCHEMA}, ["kernel", "radii"]),
    "contraction": _command({"operator": _OPERATOR_SCHEMA, "N": _N_FIELD}, ["operator"]),
    "reduce": _tagged("detector", {
        "cascade": ({**_REDUCE, "operator": _operator_schema(2), "order": _ORDER}, ("command", "operator", "order")),
        "rank-one-defect": ({**_REDUCE, "operator": _operator_schema(1), "order": _ORDER, "radii": _RADII_SCHEMA},
                            ("command", "operator", "order")),
        "unit-norm-block": (_REDUCE, ("command", "operator")),
    }),
    # a kernel source on boundary-dyadic radii takes the boundedness ``bound``; a block source the default order ``N``
    "simdiag": {
        "type": "object",
        "properties": {"source": _tagged("kind", {
            "block": ({"operator": _operator_schema(2)}, ("operator",)),
            "kernels": ({"kernels": {"type": "array", "items": _KERNEL_SCHEMA, "minItems": 1}}, ("kernels",)),
        })},
        "if": {"properties": {"source": {"properties": {"kind": {"enum": ["block"]}}}}},
        "then": _command({**_SIMDIAG, "N": _N_FIELD}, list(_SIMDIAG)),
        "else": {"if": {"properties": {"radii": {"properties": {"kind": {"enum": ["boundary_dyadic"]}}}}},
                 "then": _command({**_SIMDIAG, "bound": {"type": "number", "exclusiveMinimum": 0.0}}, list(_SIMDIAG)),
                 "else": _command(_SIMDIAG, list(_SIMDIAG))},
    },
    "ex-commutator": _command({"x_diag": {"type": "array", "items": _NUMBER, "minItems": 1},
                               "N": _N_FIELD, "radii": _RADII_SCHEMA}, ["x_diag"]),
}

# ---------------------------------------------------------------------------
# the schema, compiled
#
# Each subschema compiles once, at import, to a check: ``check(x)`` is None when ``x`` satisfies the
# subschema, else its first violation as ``(path, message)``, the path relative to ``x``.  It is the first
# error a JSON Schema 2020-12 validator yields (the test suite pins it against one): keywords are checked in
# the order of the schema dict, and paths and messages are worded as that validator words them.

def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


#: JSON types as JSON Schema tests them: a bool is neither an integer nor a number, an integral float is an integer.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "integer": lambda x: (isinstance(x, int) and not isinstance(x, bool)) or (isinstance(x, float) and x.is_integer()),
    "number": _is_number,
}

#: A property name a JSON path writes as ``.name``; any other would be quoted.
_PLAIN_NAME = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _type(types, schema):
    names = [types] if isinstance(types, str) else types
    tests = [_TYPES[name] for name in names]
    expected = ", ".join(map(repr, names))

    def check(x):
        for test in tests:
            if test(x):
                return None
        return "", f"{x!r} is not of type {expected}"
    return check


def _enum(values, schema):
    if not all(isinstance(v, str) for v in values):
        raise ValueError(f"enum takes strings only, not {values!r}")
    allowed = frozenset(values)

    def check(x):
        if isinstance(x, str) and x in allowed:
            return None
        return "", f"{x!r} is not one of {values!r}"
    return check


def _properties(properties, schema):
    for name in properties:
        if not _PLAIN_NAME.match(name):
            raise ValueError(f"property name {name!r} would need a quoted path")
    fields = [(name, "." + name, _compile(sub)) for name, sub in properties.items() if sub is not True]

    def check(x):
        if isinstance(x, dict):
            for name, segment, sub in fields:
                if name in x:
                    error = sub(x[name])
                    if error is not None:
                        return segment + error[0], error[1]
        return None
    return check


def _required(names, schema):
    def check(x):
        if isinstance(x, dict):
            for name in names:
                if name not in x:
                    return "", f"{name!r} is a required property"
        return None
    return check


def _additional_properties(allowed, schema):
    if allowed is not False:
        raise ValueError("additionalProperties must be false")
    known = frozenset(schema.get("properties", ()))

    def check(x):
        if isinstance(x, dict) and not x.keys() <= known:
            extras = sorted((k for k in x if k not in known), key=str)
            verb = "was" if len(extras) == 1 else "were"
            return "", f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"
        return None
    return check


def _size(kind, fails, message):
    """A check that ``len(x)`` of an ``x`` of JSON type ``kind`` does not ``fails(len(x), bound)``;
    ``message(bound)`` words the violation."""
    def make(bound, schema):
        is_kind, text = _TYPES[kind], message(bound)

        def check(x):
            if is_kind(x) and fails(len(x), bound):
                return "", f"{x!r} {text}"
            return None
        return check
    return make


def _items(items, schema):
    sub = _compile(items)

    def check(x):
        if isinstance(x, list):
            for i, item in enumerate(x):
                error = sub(item)
                if error is not None:
                    return f"[{i}]{error[0]}", error[1]
        return None
    return check


def _bound(fails, text):
    """A check that a number ``x`` does not ``fails(x, bound)``; NaN fails no comparison, so it passes."""
    def make(bound, schema):
        def check(x):
            if _is_number(x) and fails(x, bound):
                return "", f"{x!r} {text} {bound!r}"
            return None
        return check
    return make


def _if(condition, schema):
    test, then, otherwise = _compile(condition), _compile(schema.get("then", True)), _compile(schema.get("else", True))

    def check(x):
        return then(x) if test(x) is None else otherwise(x)
    return check


#: Each supported keyword's compiler; ``then`` and ``else`` are read by ``if``.
_KEYWORDS = {
    "type": _type,
    "enum": _enum,
    "properties": _properties,
    "required": _required,
    "additionalProperties": _additional_properties,
    "minProperties": _size("object", operator.lt,
                           lambda n: "should be non-empty" if n == 1 else "does not have enough properties"),
    "items": _items,
    "minItems": _size("array", operator.lt, lambda n: "should be non-empty" if n == 1 else "is too short"),
    "maxItems": _size("array", operator.gt, lambda n: "is expected to be empty" if n == 0 else "is too long"),
    "minimum": _bound(operator.lt, "is less than the minimum of"),
    "maximum": _bound(operator.gt, "is greater than the maximum of"),
    "exclusiveMinimum": _bound(operator.le, "is less than or equal to the minimum of"),
    "if": _if,
}


def _compile(schema):
    """The check of ``schema``: ``True`` or a dict of the keywords in :data:`_KEYWORDS`.

    Any other keyword raises ``ValueError``, so a schema edit the checks do not cover fails at import.
    """
    checks = []
    for keyword, value in ({} if schema is True else schema).items():
        if keyword in ("then", "else"):
            continue
        if keyword not in _KEYWORDS:
            raise ValueError(f"schema keyword {keyword!r} is not supported")
        checks.append(_KEYWORDS[keyword](value, schema))
    if len(checks) == 1:
        return checks[0]

    def check(x):
        for keyword_check in checks:
            error = keyword_check(x)
            if error is not None:
                return error
        return None
    return check


_VALIDATORS = {cmd: _compile(schema) for cmd, schema in _SCHEMAS.items()}


@dataclass(frozen=True)
class AnalysisRequest:
    """A schema-validated request: one command plus its payload."""

    command: str
    payload: dict


class SchemaViolation(ValueError):
    """Request rejected at the schema layer (exit code 2)."""


def parse_request(document) -> AnalysisRequest:
    """Validate a JSON document (text or parsed dict) into a request.

    Unknown fields are rejected; violations name the offending field path.
    """
    if isinstance(document, (str, bytes)):
        try:
            data = json.loads(document)
        except json.JSONDecodeError as e:
            raise SchemaViolation(f"invalid JSON: {e}") from e
    else:
        data = document
    if not isinstance(data, dict):
        raise SchemaViolation("$: request must be a JSON object")
    command = data.get("command")
    if command not in COMMANDS:
        raise SchemaViolation(f"$.command: expected one of {COMMANDS}, got {command!r}")
    error = _VALIDATORS[command](data)
    if error is not None:  # the message quotes the instance, which can run to megabytes: keep both ends
        path, message = error
        text = message if len(message) <= 320 else f"{message[:160]} ... {message[-160:]}"
        raise SchemaViolation(f"${path}: {text}")
    return AnalysisRequest(command, data)


# ---------------------------------------------------------------------------
# JSON -> domain objects

def _given(p: dict, read=operator.getitem, /, **fields) -> dict:
    """Keyword arguments ``{name: read(p, field)}`` for the request fields present in ``p``; an
    absent field leaves the library default in force."""
    return {name: read(p, field) for name, field in fields.items() if field in p}


def _int(p: dict, field: str, default=None):
    """The integer field ``p[field]`` (``default`` when absent) as an ``int``, a list of them as a tuple: the
    schema admits an integral float such as ``64.0`` as an integer, and sizes and orders must be ints."""
    value = p.get(field, default)
    return tuple(int(v) for v in value) if isinstance(value, list) else int(value)


def sequence_from_json(spec: dict, cls):
    """Build a ``cls`` (``WeightSequence`` or ``DiagonalKernel``) from its JSON description."""
    if "preset" in spec:
        preset = _PRESETS[cls][spec["preset"]]
        return preset(_int(spec, "power")) if spec["preset"] == "szego" else preset()
    tail = spec.get("tail", {})
    rule = RationalRule(_int(tail, "p"), _int(tail, "q", [1])) if tail else None
    return cls(prefix=tuple(spec.get("prefix", ())), tail=rule)


def radii_from_json(spec: dict) -> np.ndarray:
    kind = spec["kind"]
    if kind == "boundary_dyadic":
        return rkhs.boundary_radii(**_given(spec, _int, k_min="k_min", k_max="k_max"))
    if kind == "linear":
        return np.linspace(spec["start"], spec["stop"], _int(spec, "count"))
    return np.asarray(spec["values"], dtype=float)


def block_from_json(spec: dict | None) -> blockops.Block:
    kind = "zero" if spec is None else spec["kind"]
    if kind == "zero":
        return blockops.ZeroBlock()
    if kind == "shift":
        weights = sequence_from_json(spec["weights"], shifts.WeightSequence)
        return blockops.ShiftBlock(weights, **_given(spec, scale="scale"))
    if kind == "diagonal":
        return blockops.DiagonalBlock(tuple(spec.get("values", ())))
    try:
        real = np.asarray(spec["real"], dtype=float)
        imag = np.asarray(spec.get("imag", np.zeros_like(real)), dtype=float)
    except ValueError as e:  # ragged rows: a shape the schema cannot state
        raise DomainError("matrix block 'real' and 'imag' need rows of equal length") from e
    if real.shape != imag.shape:
        raise DomainError("matrix block real and imaginary parts must share a shape")
    return blockops.MatrixBlock(real + 1j * imag)


def operator_from_json(spec: dict, default_order: int) -> blockops.BlockOperator:
    grid = tuple(tuple(block_from_json(b) for b in row) for row in spec["grid"])
    return blockops.BlockOperator(grid, order=_int(spec, "N", default_order))


def default_order(payload: dict) -> int:
    return _int(payload, "N", shifts.DEFAULT_ORDER)


# ---------------------------------------------------------------------------
# command execution

def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        if math.isnan(v):
            return None
        if math.isinf(v):
            return 1e308 if v > 0 else -1e308
        return v
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


def _run_hypercontract(p: dict):
    w = sequence_from_json(p["shift"], shifts.WeightSequence)
    order = _int(p, "order")
    report = shifts.hypercontractivity_report(w, order, default_order(p))
    return {
        "command": "hypercontract",
        "order": order,
        "N": default_order(p),
        "orders": report.orders,
        "min_eigenvalues": report.min_eigenvalues,
        "verdicts": report.verdicts,
        "window": report.window,
        "passed": report.passed,
        "first_failure": report.first_failure(),
    }, None


def _run_shields(p: dict):
    a = sequence_from_json(p["a"], shifts.WeightSequence)
    b = sequence_from_json(p["b"], shifts.WeightSequence)
    horizons = _int(p, "horizons") if "horizons" in p else [k * _int(p, "horizon") for k in (1, 2, 4)]
    rep = shifts.shields_similarity(a, b, horizons, **_given(p, divergence_threshold="threshold"))
    return {
        "command": "shields",
        "verdict": rep.verdict,
        "sup_ratio": rep.sup_ratio,
        "inf_ratio": rep.inf_ratio,
        "horizons": rep.horizons,
        "sup_ratio_at_horizons": rep.sup_at_horizons,
        "inf_ratio_at_horizons": rep.inf_at_horizons,
        "log_sup_at_horizons": rep.log_sup_at_horizons,
        "log_inf_at_horizons": rep.log_inf_at_horizons,
    }, None


def _run_curvature(p: dict):
    kernel = sequence_from_json(p["kernel"], rkhs.DiagonalKernel)
    radii = radii_from_json(p["radii"])
    profile = rkhs.curvature_profile(kernel, radii, **_given(p, method="method"))
    closed_match = None
    if p["kernel"].get("preset") == "szego":
        power = _int(p["kernel"], "power")
        exact = -power / (1.0 - profile.radii ** 2) ** 2
        rel = np.abs(profile.values - exact) / np.abs(exact)
        closed_match = bool(np.max(rel) <= (1e-10 if profile.method == "series" else 1e-5))
    csv = io.StringIO()
    rkhs.write_curvature_csv(profile, csv)
    return {
        "command": "curvature",
        "method": profile.method,
        "samples": len(profile.radii),
        "closed_form_match": closed_match,
        "min_value": float(np.min(profile.values)),
        "max_value": float(np.max(profile.values)),
    }, csv.getvalue()


def _run_contraction(p: dict):
    B = operator_from_json(p["operator"], default_order(p))
    scan = blockops.blockwise_contraction_scan(B)
    return {
        "command": "contraction",
        "is_contraction": scan.assembled.is_psd,
        "min_eigenvalue": scan.assembled.min_eigenvalue,
        "threshold": scan.assembled.threshold,
        "block_norms": scan.norms,
        "window_norms": scan.window_norms,
        "blocks_contractive": scan.contractions,
        "unit_norm_flags": scan.unit_norm_flags,
        "row_squared_sums": scan.row_sums,
        "col_squared_sums": scan.col_sums,
        "violations": scan.violations,
    }, None


def _run_reduce(p: dict):
    B = operator_from_json(p["operator"], default_order(p))
    detector = p["detector"]
    extra: dict = {}
    if detector == "unit-norm-block":
        verdict = blockops.unit_norm_reducibility(B)
    elif detector == "cascade":
        verdict = blockops.cascade_reducibility(B, _int(p, "order"))
    else:
        radii = radii_from_json(p["radii"]) if "radii" in p else None
        rep = blockops.rank_one_defect_check(B, _int(p, "order"), radii)
        verdict = rep.verdict
        extra = {
            "top_singular_values": rep.top_singular_values,
            "radii": rep.radii,
            "metric_samples": rep.metric_samples,
            "expected_metric": rep.expected_metric,
            "curvature_samples": rep.curvature_samples,
        }
    return {
        "command": "reduce",
        "detector": verdict.detector,
        "reducible": verdict.reducible,
        "witness": verdict.witness,
        **extra,
    }, None


def _run_simdiag(p: dict):
    kernel = sequence_from_json(p["kernel"], rkhs.DiagonalKernel)
    n = _int(p, "multiplicity")
    radii = radii_from_json(p["radii"])
    src = p["source"]
    if src["kind"] == "kernels":
        source = [sequence_from_json(k, rkhs.DiagonalKernel) for k in src["kernels"]]
        D = similarity.kernel_source_diagnostic(source, kernel, n, radii)
        if p["radii"]["kind"] == "boundary_dyadic":
            D = similarity.boundedness_verdict(D, **_given(p, bound="bound"))
    else:
        source = operator_from_json(src["operator"], default_order(p))
        D = similarity.det_ratio_profile(source, kernel, n, radii)
    csv = io.StringIO()
    similarity.write_similarity_csv(D, csv)
    return {
        "command": "simdiag",
        "multiplicity": n,
        "samples": len(D.radii),
        "verdicts": similarity.diagnostic_verdicts(D),
    }, csv.getvalue()


def _run_ex_commutator(p: dict):
    radii = radii_from_json(p["radii"]) if "radii" in p else None
    rep = similarity.commutator_example(p["x_diag"], radii=radii, **_given(p, _int, N="N"))
    witness = rep.profile.witness
    csv = io.StringIO()
    similarity.write_similarity_csv(rep.profile, csv)
    return {
        "command": "ex-commutator",
        "closed_form_check": rep.closed_form_check,
        "pinch_ok": rep.pinch_ok,
        "max_relative_error": rep.max_rel_err,
        "x_norm": rep.x_norm,
        "witness_residual": witness.max_residual,
        "witness_tolerance": witness.tolerance,
        "witness_passed": witness.passed,
    }, csv.getvalue()


_RUNNERS = {
    "hypercontract": _run_hypercontract,
    "shields": _run_shields,
    "curvature": _run_curvature,
    "contraction": _run_contraction,
    "reduce": _run_reduce,
    "simdiag": _run_simdiag,
    "ex-commutator": _run_ex_commutator,
}


def run(request: AnalysisRequest) -> tuple[dict, str | None]:
    """Execute a validated request; returns the JSON report and optional CSV text."""
    report, csv_text = _RUNNERS[request.command](request.payload)
    return _jsonable(report), csv_text


def render_report(report: dict) -> str:
    """Deterministic JSON rendering: sorted keys, repr floats, newline-terminated."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


#: The command line's parser, built once: parsing reads it and leaves it as it was.
_PARSER = argparse.ArgumentParser(
    prog="cdlab",
    description="Run one JSON-described operator analysis and emit JSON/CSV reports.",
)
_PARSER.add_argument("request", nargs="?", default="-",
                     help="path to the JSON request document, or '-' for stdin")
_PARSER.add_argument("--out", help="write the JSON report here instead of stdout")
_PARSER.add_argument("--csv", help="write the CSV profile here (commands that produce one)")
_PARSER.add_argument("--quiet", action="store_true", help="suppress the stdout report echo")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if args.request == "-":
            text = sys.stdin.read()
        else:
            with open(args.request, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"cdlab: cannot read request: {e}", file=sys.stderr)
        return EXIT_IO

    try:
        request = parse_request(text)
    except SchemaViolation as e:
        print(f"cdlab: schema violation: {e}", file=sys.stderr)
        return EXIT_SCHEMA

    try:
        report, csv_text = run(request)
    except (SingularityError, TruncationError, np.linalg.LinAlgError) as e:
        print(f"cdlab: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (DomainError, DimensionError, StructureError, ConfigurationError) as e:
        print(f"cdlab: invalid request: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    except CdlabError as e:
        print(f"cdlab: numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL

    rendered = render_report(report)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(rendered)
        if args.csv and csv_text is not None:
            with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(csv_text)
    except OSError as e:
        print(f"cdlab: cannot write output: {e}", file=sys.stderr)
        return EXIT_IO
    if not args.quiet and not args.out:
        sys.stdout.write(rendered)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
