"""Malformed requests, one per rule of the request contract.

Each entry is ``(id, request, exit code, fragments)``: ``cli.main`` must exit
with that code and print every fragment (the field path and the field) on
stderr.  The contract's rules are: a sequence is a preset or explicit data;
``szego`` alone takes a ``power``, and needs it; each radii ``kind``, block
``kind``, ``simdiag`` source ``kind`` and ``reduce`` detector admits its own
fields and needs the ones it lists (a kernel source's ``bound`` goes with
boundary-dyadic radii only); grids are 1x1 for ``rank-one-defect``
and 2x2 for ``cascade`` and a block source; sizes that would exhaust memory
are bounded.  The ragged matrix is the one case the schema cannot state
(exit 3).
"""

from __future__ import annotations

SZEGO1 = {"preset": "szego", "power": 1}
SZEGO2 = {"preset": "szego", "power": 2}
SHIFT = {"kind": "shift", "weights": SZEGO2}
ONE = {"N": 16, "grid": [[SHIFT]]}
TWO = {"N": 16, "grid": [[SHIFT, {"kind": "diagonal", "values": [0.1]}],
                         [None, {"kind": "shift", "weights": SZEGO1}]]}
EXPLICIT = {"kind": "explicit", "values": [0.3]}
DYADIC = {"kind": "boundary_dyadic", "k_min": 3, "k_max": 4}

HYPER = {"command": "hypercontract", "shift": SZEGO2, "order": 2, "N": 16}
SHIELDS = {"command": "shields", "a": SZEGO1, "b": SZEGO2, "horizon": 16}
CURVATURE = {"command": "curvature", "kernel": SZEGO2, "radii": DYADIC}
CONTRACTION = {"command": "contraction", "operator": TWO}
CASCADE = {"command": "reduce", "detector": "cascade", "order": 2, "operator": TWO}
RANK_ONE = {"command": "reduce", "detector": "rank-one-defect", "order": 2, "operator": ONE}
UNIT_NORM = {"command": "reduce", "detector": "unit-norm-block", "operator": TWO}
KERNEL_SOURCE = {"command": "simdiag", "source": {"kind": "kernels", "kernels": [SZEGO1]}, "kernel": SZEGO1,
                 "multiplicity": 1, "radii": EXPLICIT}
BLOCK_SOURCE = {"command": "simdiag", "source": {"kind": "block", "operator": TWO}, "kernel": SZEGO1,
                "multiplicity": 2, "radii": EXPLICIT}

#: Valid small requests, one per command and form; each case below breaks one of them.
VALID = [HYPER, SHIELDS, CURVATURE, {**CURVATURE, "method": "finite-difference"}, CONTRACTION,
         CASCADE, {**RANK_ONE, "radii": EXPLICIT}, UNIT_NORM, {**KERNEL_SOURCE, "bound": 10.0, "radii": DYADIC},
         {**BLOCK_SOURCE, "N": 16}, {"command": "ex-commutator", "x_diag": [0.5, 0.25], "N": 16, "radii": EXPLICIT}]


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _cell(block) -> dict:
    return {**CONTRACTION, "operator": {"N": 16, "grid": [[block]]}}


_LINEAR = {"kind": "linear", "start": 0.1, "stop": 0.5}

MALFORMED = [
    # rules the ``*_from_json`` functions, runners and cascade detector once checked (exit 3), and missing values
    # (once a KeyError, exit 1)
    ("preset-with-prefix", {**HYPER, "shift": {"preset": "hardy", "prefix": [0.5]}}, 2, ("$.shift:", "'prefix'")),
    ("preset-with-tail", {**CURVATURE, "kernel": {**SZEGO2, "tail": {"p": [1]}}}, 2, ("$.kernel:", "'tail'")),
    ("szego-without-power", {**HYPER, "shift": {"preset": "szego"}}, 2, ("$.shift:", "'power'")),
    ("hardy-with-power", {**HYPER, "shift": {"preset": "hardy", "power": 2}}, 2, ("$.shift:", "'power'")),
    ("empty-sequence", {**HYPER, "shift": {}}, 2, ("$.shift:", "non-empty")),
    ("power-without-preset", {**HYPER, "shift": {"power": 2}}, 2, ("$.shift:", "'power'")),
    ("linear-without-start", {**CURVATURE, "radii": _without(_LINEAR, "start") | {"count": 3}}, 2,
     ("$.radii:", "'start'")),
    ("linear-without-stop", {**CURVATURE, "radii": _without(_LINEAR, "stop") | {"count": 3}}, 2,
     ("$.radii:", "'stop'")),
    ("linear-without-count", {**CURVATURE, "radii": _LINEAR}, 2, ("$.radii:", "'count'")),
    ("explicit-without-values", {**CURVATURE, "radii": {"kind": "explicit"}}, 2, ("$.radii:", "'values'")),
    ("shift-without-weights", _cell({"kind": "shift"}), 2, ("$.operator.grid[0][0]:", "'weights'")),
    ("matrix-without-real", _cell({"kind": "matrix", "imag": [[0.0]]}), 2, ("$.operator.grid[0][0]:", "'real'")),
    ("cascade-without-order", _without(CASCADE, "order"), 2, ("$:", "'order'")),
    ("rank-one-without-order", _without(RANK_ONE, "order"), 2, ("$:", "'order'")),
    ("rank-one-on-2x2", {**RANK_ONE, "operator": TWO}, 2, ("$.operator.grid:", "too long")),
    ("cascade-on-1x1", {**CASCADE, "operator": ONE}, 2, ("$.operator.grid:", "too short")),
    ("kernel-source-without-kernels", {**KERNEL_SOURCE, "source": {"kind": "kernels"}}, 2,
     ("$.source:", "'kernels'")),
    ("block-source-without-operator", {**BLOCK_SOURCE, "source": {"kind": "block"}}, 2,
     ("$.source:", "'operator'")),
    ("block-source-1x1", {**BLOCK_SOURCE, "source": {"kind": "block", "operator": ONE}}, 2,
     ("$.source.operator.grid:", "too short")),
    ("block-source-3x3", {**BLOCK_SOURCE, "source": {"kind": "block", "operator": {
        "N": 16, "grid": [[SHIFT, None, None], [None, SHIFT, None], [None, None, SHIFT]]}}}, 2,
     ("$.source.operator.grid:", "too long")),
    # fields of another kind, once accepted and ignored (exit 0)
    ("dyadic-with-values", {**CURVATURE, "radii": {"kind": "boundary_dyadic", "values": [0.5]}}, 2,
     ("$.radii:", "'values'")),
    ("explicit-with-k_min", {**CURVATURE, "radii": {**EXPLICIT, "k_min": 3}}, 2, ("$.radii:", "'k_min'")),
    ("linear-with-values", {**CURVATURE, "radii": {**_LINEAR, "count": 3, "values": [0.5]}}, 2,
     ("$.radii:", "'values'")),
    ("shift-with-values", _cell({**SHIFT, "values": [0.1]}), 2, ("$.operator.grid[0][0]:", "'values'")),
    ("diagonal-with-weights", _cell({"kind": "diagonal", "values": [0.1], "weights": SZEGO1}), 2,
     ("$.operator.grid[0][0]:", "'weights'")),
    ("zero-with-scale", _cell({"kind": "zero", "scale": 0.5}), 2, ("$.operator.grid[0][0]:", "'scale'")),
    ("matrix-with-weights", _cell({"kind": "matrix", "real": [[0.0]], "weights": SZEGO1}), 2,
     ("$.operator.grid[0][0]:", "'weights'")),
    ("unit-norm-with-order", {**UNIT_NORM, "order": 2}, 2, ("$:", "'order'")),
    ("cascade-with-radii", {**CASCADE, "radii": EXPLICIT}, 2, ("$:", "'radii'")),
    ("kernel-source-with-operator", {**KERNEL_SOURCE, "source": {**KERNEL_SOURCE["source"], "operator": TWO}}, 2,
     ("$.source:", "'operator'")),
    ("block-source-with-kernels", {**BLOCK_SOURCE, "source": {**BLOCK_SOURCE["source"], "kernels": [SZEGO1]}}, 2,
     ("$.source:", "'kernels'")),
    ("block-source-with-bound", {**BLOCK_SOURCE, "bound": 10.0}, 2, ("$:", "'bound'")),
    ("kernel-source-with-N", {**KERNEL_SOURCE, "N": 64}, 2, ("$:", "'N'")),
    ("series-with-step", {**CURVATURE, "step": 1e-3}, 2, ("$:", "'step'")),
    # sizes that exhaust memory or overflow a float (once exit 0, or 1 for the 311-digit coefficient)
    ("horizon-beyond-2^20", {**SHIELDS, "horizon": 2 ** 20 + 1}, 2, ("$.horizon:", "maximum")),
    ("horizons-beyond-2^22", {**_without(SHIELDS, "horizon"), "horizons": [16, 32, 2 ** 22 + 1]}, 2,
     ("$.horizons[2]:", "maximum")),
    ("count-beyond-4096", {**CURVATURE, "radii": {**_LINEAR, "count": 4097}}, 2, ("$.radii.count:", "maximum")),
    ("values-beyond-4096", {**CURVATURE, "radii": {"kind": "explicit", "values": [0.5] * 4097}}, 2,
     ("$.radii.values:", "too long")),
    ("k_min-beyond-53", {**CURVATURE, "radii": {**DYADIC, "k_min": 54}}, 2, ("$.radii.k_min:", "maximum")),
    ("k_max-beyond-53", {**CURVATURE, "radii": {**DYADIC, "k_max": 10 ** 6}}, 2, ("$.radii.k_max:", "maximum")),
    ("tail-p-beyond-2^53", {**HYPER, "shift": {"tail": {"p": [10 ** 310, 1]}}}, 2, ("$.shift.tail.p[0]:", "maximum")),
    ("tail-q-below-minus-2^53", {**HYPER, "shift": {"tail": {"p": [1, 1], "q": [-(2 ** 53 + 1), 1]}}}, 2,
     ("$.shift.tail.q[0]:", "minimum")),
    # a tail past 16 coefficients (once accepted: its weights or defects overflow, exit 3 or 4)
    ("tail-p-beyond-16-coefficients", {**HYPER, "shift": {"tail": {"p": [1] * 200}}}, 2,
     ("$.shift.tail.p:", "too long")),
    # the one shape rule the schema cannot state (once numpy's ValueError, exit 1)
    ("ragged-matrix-rows", _cell({"kind": "matrix", "real": [[1.0, 2.0], [3.0]]}), 3, ("'real'",)),
    # the boundedness verdict reads ``bound`` on boundary-dyadic radii only (once accepted and ignored, exit 0)
    ("bound-with-explicit-radii", {**KERNEL_SOURCE, "bound": 10.0}, 2, ("$:", "'bound'")),
]
