"""Replay the benchmark's requests in-process and print one digest per request.

Each request goes through ``cli.parse_request``, ``cli.run`` and
``cli.render_report``.  A line reads ``<workload> <index> <outcome> <sha256>``:
the outcome is ``ok`` with the digest of the JSON report plus the CSV text,
or the error class (one the command line maps to an exit code) with the
digest of its message.  Two trees answer the requests identically exactly
when their outputs are identical.

The requests are the benchmark's warm-up cases followed by two rounds of
each of seeds 1-3, for every workload (370 requests), then a fixed list of
edge requests labelled ``edge`` (radii that are NaN, negative, 1 or beyond
the cap of their command, a graded grid six blocks wide, ungraded
operators: matrix blocks and a diagonal block on the grid diagonal, and
rank-one orders that leave no defect window, the malformed requests of
``malformed.py``, then a frame whose section overflows, one whose radii
fail in an order that pins which error comes first, a frame with a matrix
coupling, a series sweep at a radius whose ``t^2`` underflows, a tail
whose forward ratio's coefficients pass int64, and ``shields`` at the
largest horizons, then one request per form with every integer field sent as
an integral float, rank-one requests on a zero block and an all-zero
diagonal block, one whose defect overflows, and a 16-coefficient tail with
many real turning points, as shift weights in ``shields`` and as kernel
coefficients in ``curvature``, and last the ``simdiag`` requests of
:data:`FLOAT_RANGE`), so error paths, the one-block defect route, the sweep,
the exact root reader and the float-range checks are compared too;
``--warmup-only`` replays the warm-up cases alone::

    python tests/replay.py [--warmup-only] > digests.txt

With ``--floats`` the digest is taken over the answer with every number
replaced by ``#``, and the numbers follow as a JSON list, so two trees whose
answers differ only in float round-off can be told apart from two that differ
in verdicts, flags, error classes or structure.  ``--compare`` reads two such
files and lists every line that differs, with the largest relative and
absolute moves of its numbers; it exits 1 when a line's structure differs or
a number moves by more than ``REL`` (1e-13) relative::

    python tests/replay.py --floats > before.txt    # in each tree
    python tests/replay.py --compare before.txt after.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from cdlab import cli  # noqa: E402
from cdlab.errors import CdlabError  # noqa: E402
from malformed import MALFORMED  # noqa: E402
from perfbench.workloads import WORKLOADS, RequestStream, warmup_cases  # noqa: E402

SEEDS = (1, 2, 3)
ROUNDS = 2

_SZEGO4 = {"preset": "szego", "power": 4}
_NINTHS = {"tail": {"p": [1], "q": [9]}}  # b_n = 1/9
_HARDY = {"kind": "shift", "weights": {"preset": "hardy"}}
#: ``(request, message)``: ``simdiag`` requests that exit 4 (NonFiniteError), and the end of the message, which names
#: the radius.  The model power ``K^n`` overflows on the dyadic grid, underflows to 0 for the ninths kernel at
#: n = 400, and overflows before a block source's frame solve; ``det h`` of two kernels with ``b_0 = 1e300``
#: overflows at ``r = 0``.
FLOAT_RANGE = [
    ({"command": "simdiag", "source": {"kind": "kernels", "kernels": [{"preset": "szego", "power": 1}]},
      "kernel": _SZEGO4, "multiplicity": 64, "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12}},
     "K^n = inf out of float range at radius 0.96875, multiplicity 64"),
    ({"command": "simdiag", "source": {"kind": "kernels", "kernels": [_NINTHS]}, "kernel": _NINTHS,
      "multiplicity": 400, "radii": {"kind": "explicit", "values": [0.1, 0.2]}},
     "K^n = 0.0 out of float range at radius 0.1, multiplicity 400"),
    ({"command": "simdiag", "source": {"kind": "block", "operator": {"grid": [[_HARDY, None], [None, _HARDY]]}},
      "kernel": _SZEGO4, "multiplicity": 200, "radii": {"kind": "explicit", "values": [0.9]}},
     "K^n = inf out of float range at radius 0.9, multiplicity 200"),
    ({"command": "simdiag", "source": {"kind": "kernels", "kernels": [{"prefix": [1e300], "tail": {"p": [1]}}] * 2},
      "kernel": {"preset": "szego", "power": 1}, "multiplicity": 1, "radii": {"kind": "explicit", "values": [0.0, 0.5]}},
     "ratio inf at radius 0.0 is not finite"),
]


def _edge_requests() -> list[dict]:
    szego = lambda k: {"preset": "szego", "power": k}
    shift = lambda weights, scale=1.0: {"kind": "shift", "weights": weights, "scale": scale}
    block = {"N": 128, "grid": [[shift({"preset": "hardy"}), {"kind": "diagonal", "values": [0.4, -0.2]}],
                                [None, shift(szego(2))]]}
    # (request without radii, radius beyond its command's cap)
    commands = [
        ({"command": "curvature", "kernel": szego(2)}, 1 - 2.0 ** -20),
        ({"command": "curvature", "kernel": szego(2), "method": "finite-difference"}, 1 - 2.0 ** -20),
        ({"command": "simdiag", "source": {"kind": "kernels", "kernels": [szego(1), szego(1)]},
          "kernel": szego(1), "multiplicity": 2}, 1 - 2.0 ** -20),
        ({"command": "simdiag", "source": {"kind": "block", "operator": block},
          "kernel": szego(2), "multiplicity": 2}, 0.97),
        ({"command": "ex-commutator", "x_diag": [0.5, 0.25]}, 0.97),
        ({"command": "reduce", "detector": "rank-one-defect", "order": 2,
          "operator": {"N": 48, "grid": [[shift(szego(2))]]}}, 1.5),
    ]
    edge = [{**doc, "radii": {"kind": "explicit", "values": [r, 0.5] if r < 0.5 else [0.5, r]}}
            for doc, beyond in commands for r in (float("nan"), -0.25, 1.0, beyond)]
    wide = {"N": 64, "grid": [[shift(szego(2), 0.5) if j in (i, i + 1) else None for j in range(6)]
                              for i in range(6)]}
    edge.append({"command": "contraction", "operator": wide})
    edge.append({"command": "reduce", "detector": "unit-norm-block", "operator": wide})
    # ungraded operators (the defect engine's one-block case), small enough that BLAS threads cannot move floats
    matrix = lambda N, scale: {"kind": "matrix", "real": [[scale * ((3 * i + 5 * j) % 7 - 3) for j in range(N)]
                                                           for i in range(N)]}
    edge.append({"command": "contraction", "operator": {"N": 8, "grid": [[matrix(8, 0.125)]]}})
    coupled = {"N": 16, "grid": [[shift(szego(2)), matrix(16, 0.00390625)], [None, shift({"preset": "hardy"}, 0.5)]]}
    edge.append({"command": "contraction", "operator": coupled})
    edge.append({"command": "reduce", "detector": "cascade", "order": 2, "operator": coupled})
    edge.append({"command": "reduce", "detector": "unit-norm-block", "operator": coupled})
    split = {**coupled, "grid": [[coupled["grid"][0][0], matrix(16, 0.0)], coupled["grid"][1]]}
    edge.append({"command": "reduce", "detector": "cascade", "order": 2, "operator": split})
    hardy_matrix = {"kind": "matrix", "real": [[1.0 if j == i + 1 else 0.0 for j in range(12)] for i in range(12)]}
    edge.append({"command": "reduce", "detector": "rank-one-defect", "order": 1,
                 "operator": {"N": 12, "grid": [[hardy_matrix]]}, "radii": {"kind": "explicit", "values": [0.1, 0.3]}})
    diagonal = {"kind": "diagonal", "values": [0.5, -0.25, 0.75, 0.125, -0.5, 0.25, 0.375, -0.625]}
    edge.append({"command": "contraction",
                 "operator": {"N": 8, "grid": [[diagonal, shift(szego(2), 0.25)], [None, shift(szego(1), 0.5)]]}})
    # rank-one orders that leave a defect window of fewer than two rows
    edge.extend({"command": "reduce", "detector": "rank-one-defect", "order": order,
                 "operator": {"N": 8, "grid": [[shift({"preset": "hardy"})]]}} for order in (7, 8, 12))
    edge.extend(doc for _, doc, _, _ in MALFORMED)
    # frames: a section that overflows, and radii whose second fails t_2 and third fails t_1
    frame = lambda bottom, radii: {
        "command": "simdiag", "kernel": szego(1), "multiplicity": 2, "radii": {"kind": "explicit", "values": radii},
        "source": {"kind": "block", "operator": {"N": 64, "grid": [
            [shift({"preset": "hardy"}), {"kind": "diagonal", "values": [0.4, -0.2]}], [None, shift(bottom)]]}}}
    edge.append(frame({"prefix": [1e-200, 1e-200], "tail": {"p": [1, 1], "q": [2, 1]}}, [0.5]))
    edge.append(frame(szego(3), [0.5, 0.8, 0.9]))
    # a block source whose coupling is a matrix (its rows past the fourth zero, so the frame solve certifies)
    coupling = {"kind": "matrix", "real": [[0.125 * ((3 * i + 5 * j) % 7 - 3) if i < 4 else 0.0 for j in range(16)]
                                           for i in range(16)]}
    edge.append({"command": "simdiag", "kernel": szego(1), "multiplicity": 2,
                 "radii": {"kind": "explicit", "values": [0.05, 0.1, 0.15]},
                 "source": {"kind": "block", "operator": {"N": 16, "grid": [[shift({"preset": "hardy"}), coupling],
                                                                            [None, shift(szego(2))]]}}})
    # a tail with a non-constant denominator takes the chunked sweep; at r = 1e-100 every t^m with m >= 2 underflows
    edge.append({"command": "curvature", "kernel": {"tail": {"p": [1, 2, 1], "q": [2, 1]}},
                 "radii": {"kind": "explicit", "values": [1e-100, 0.5]}})
    # the forward ratio of (2^32 + i)/(3 + 2^32 i) has coefficients past int64
    edge.append({"command": "curvature", "kernel": {"tail": {"p": [4294967296, 1], "q": [3, 4294967296]}},
                 "radii": {"kind": "explicit", "values": [0.5, 0.9]}})
    edge.append({"command": "shields", "a": {"preset": "hardy"}, "b": {"preset": "bergman"},
                 "horizons": [2 ** 20, 2 ** 21, 2 ** 22]})
    # every integer field of every form sent as an integral float, which the schema admits as an integer
    integral = [
        {"command": "hypercontract", "shift": szego(2), "order": 2, "N": 32},
        {"command": "shields", "a": {"tail": {"p": [1, 1], "q": [2, 1]}}, "b": szego(1), "horizon": 16},
        {"command": "shields", "a": {"preset": "hardy"}, "b": {"preset": "bergman"}, "horizons": [16, 32, 64]},
        {"command": "curvature", "kernel": szego(2), "radii": {"kind": "linear", "start": 0.1, "stop": 0.9,
                                                                "count": 5}},
        {"command": "curvature", "kernel": {"tail": {"p": [1, 2, 1], "q": [2, 1]}},
         "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 6}},
        {"command": "contraction", "N": 16, "operator": {"grid": block["grid"]}},
        {"command": "reduce", "detector": "cascade", "order": 1, "operator": {**block, "N": 32}},
        {"command": "reduce", "detector": "rank-one-defect", "order": 2,
         "operator": {"N": 48, "grid": [[shift(szego(2))]]}},
        {"command": "reduce", "detector": "unit-norm-block", "N": 16, "operator": {"grid": block["grid"]}},
        {"command": "simdiag", "source": {"kind": "block", "operator": {"grid": block["grid"]}}, "kernel": szego(2),
         "multiplicity": 2, "N": 128, "radii": {"kind": "explicit", "values": [0.2, 0.5]}},
        {"command": "simdiag", "source": {"kind": "kernels", "kernels": [szego(1), szego(1)]}, "kernel": szego(1),
         "multiplicity": 2, "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12}},
        {"command": "ex-commutator", "x_diag": [0.5, 0.25], "N": 160},
    ]
    edge.extend(json.loads(json.dumps(doc), parse_int=float) for doc in integral)
    # 1x1 grids with no nonzero entry: graded, so the rank-one detector reads their defect off the diagonal
    edge.extend({"command": "reduce", "detector": "rank-one-defect", "order": 2, "operator": {"N": 16, "grid": [[cell]]}}
                for cell in ({"kind": "zero"}, {"kind": "diagonal", "values": [0.0, 0.0]}))
    # a rank-one request whose defect overflows
    edge.append({"command": "reduce", "detector": "rank-one-defect", "order": 1,
                 "operator": {"N": 16, "grid": [[shift({"preset": "hardy"}, 1e200)]]}})
    # a 16-coefficient tail (i + 1)(r(i)^2 + 1) / ((i + 1)(s(i)^2 + 1)), r(i) = prod_{k<7} (2i - 3 - 4k) and
    # s(i) = prod_{k<7} (2i - 1 - 4k): 27 turning cells in [0, 14], read for the shields cutoff and, as kernel
    # coefficients, for the sweep's ratio bound
    tail = {"p": [1671463434096226, -3456005452026434, 1732558510461384, 1531868918465484, -2628884492590608,
                  1750636678874832, -709002092067584, 195254652650176, -38304253391104, 5462462349056,
                  -568689752064, 42805625856, -2268786688, 80310272, -1703936, 16384],
            "q": [27260146265626, -140060097961874, 229985185305600, -86986901942580, -130252875794384,
                  184506426846672, -113518520080000, 42851028009664, -10929192575232, 1959560957696,
                  -250491351040, 22741189632, -1433513984, 59666432, -1474560, 16384]}
    edge.append({"command": "shields", "a": {"tail": tail}, "b": {"preset": "hardy"}, "horizon": 64})
    edge.append({"command": "curvature", "kernel": {"tail": tail},
                 "radii": {"kind": "explicit", "values": [0.5, 0.99]}})
    edge.extend(doc for doc, _ in FLOAT_RANGE)
    return edge


def requests(workload: str, warmup_only: bool) -> list[dict]:
    cases = warmup_cases(workload)
    if not warmup_only:
        for seed in SEEDS:
            stream = RequestStream(workload, seed)
            for _ in range(ROUNDS):
                cases.extend(stream.next_round())
    return [case.request for case in cases]


def labelled_requests(warmup_only: bool) -> Iterator[tuple[str, dict]]:
    """``(label, request)`` for every replayed request, in the order the digests are printed."""
    for workload in WORKLOADS:
        for i, request in enumerate(requests(workload, warmup_only)):
            yield f"{workload} {i}", request
    if not warmup_only:
        for i, request in enumerate(_edge_requests()):
            yield f"edge {i}", request


#: Relative move past which ``--compare`` fails a line: the replay's float agreement criterion.
REL = 1e-13
#: A number in a report, a CSV row or an error message (not a digit inside a word).
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|nan|inf)(?!\w)")


def answer(request: dict) -> tuple[str, str]:
    """``(outcome, text)`` of one request: the rendered report plus CSV, or the error message."""
    try:
        report, csv_text = cli.run(cli.parse_request(json.dumps(request)))
    except (cli.SchemaViolation, CdlabError, np.linalg.LinAlgError) as e:  # the classes the CLI maps to exit codes
        return type(e).__name__, str(e)
    return "ok", cli.render_report(report) + "\0" + (csv_text or "")


def line(label: str, request: dict, floats: bool) -> str:
    outcome, text = answer(request)
    numbers = []
    if floats:
        text = NUMBER.sub(lambda m: numbers.append(float(m.group())) or "#", text)
    sha = hashlib.sha256(text.encode()).hexdigest()
    return f"{label} {outcome} {sha}" + (f" {json.dumps(numbers)}" if floats else "")


def _moved(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative difference of two numbers (0 for equal ones and two NaNs)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    return (d, d / max(abs(a), abs(b))) if math.isfinite(d) else (math.inf, math.inf)


def compare(before: str, after: str) -> int:
    """Print each line of two ``--floats`` files that differs, with its numbers' largest relative and absolute
    moves; returns 1 when a line differs in structure or a number moves by more than :data:`REL` relative."""
    def read(path):
        with open(path, encoding="utf-8") as fh:
            return {tuple(ln.split()[:2]): ln.split(maxsplit=4)[2:] for ln in fh if ln.strip()}

    a, b = read(before), read(after)
    worst = 0
    for key in sorted(a.keys() | b.keys(), key=lambda k: (k[0], int(k[1]))):
        x, y = a.get(key), b.get(key)
        if x == y:
            continue
        if x is None or y is None or x[:2] != y[:2] or len(json.loads(x[2])) != len(json.loads(y[2])):
            print(*key, "structure" if x and y else "missing")
            worst = 1
            continue
        moves = [_moved(u, v) for u, v in zip(json.loads(x[2]), json.loads(y[2]))]
        beyond = any(r > REL for _, r in moves)
        print(*key, "beyond" if beyond else "floats", f"rel {max(r for _, r in moves):.3g}",
              f"abs {max(d for d, _ in moves):.3g}")
        worst = max(worst, int(beyond))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup-only", action="store_true", help="replay only the warm-up cases")
    parser.add_argument("--floats", action="store_true", help="digest the answers without their numbers, "
                        "and print the numbers")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"),
                        help="compare two --floats outputs instead of replaying")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for label, request in labelled_requests(args.warmup_only):
        print(line(label, request, args.floats), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
