"""Seeded request generator: one family table per workload.

Every request comes from a family whose correct answer is known by
construction.  A ``Case`` carries the request document and the family
parameters (``expect``) from which ``oracle`` derives that answer, including
the exit code the command line must return.

A workload run is a sequence of *rounds*.  Each round holds the same fixed
list of slots (family plus the parameters that set its cost, such as the
truncation order or the number of radii); the seed draws the remaining
parameters and the order of the slots.  Because every round has the same
composition, the latency percentiles fall in the same size class on every
seed, and a run that completes whole rounds always includes its heaviest
requests.  One slot in twenty is a deliberately invalid request.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

#: Analytic radius cap of the similarity diagnostics (``1 - 2^-12``).
ANALYTIC_RADIUS_CAP = 1.0 - 2.0 ** -12
#: The prefix weight of the order-2 counterexample: ``sqrt(13/25)``.
COUNTEREXAMPLE_PREFIX = math.sqrt(13 / 25)
#: A frame request is generated as valid only when the predicted section tail
#: stays this far below the program's own ``1e-10`` acceptance level.
VALID_TAIL_RATIO = 1e-13


@dataclass(frozen=True)
class Case:
    """One request plus what the oracle needs to judge its outcome."""

    family: str
    request: dict
    expect: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        return self.expect.get("exit", 0)


# ---------------------------------------------------------------------------
# JSON fragments

def shift_json(p: int, rng: random.Random) -> dict:
    """Weights ``sqrt((i+1)/(i+p))`` as a preset or as an explicit rational tail."""
    form = rng.randrange(3)
    if form == 0:
        return {"tail": {"p": [1, 1], "q": [p, 1]}}
    if form == 1 and p in (1, 2):
        return {"preset": "hardy" if p == 1 else "bergman"}
    return {"preset": "szego", "power": p}


def kernel_tail(p: int) -> dict:
    """Coefficients ``C(n+p-1, n)`` written as ``prod_{j<p} (n + j) / (p-1)!``."""
    poly = [1]
    for j in range(1, p):
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] += j * c
            nxt[i + 1] += c
        poly = nxt
    return {"p": poly, "q": [math.factorial(p - 1)]}


def kernel_json(p: int, explicit: bool) -> dict:
    return {"tail": kernel_tail(p)} if explicit else {"preset": "szego", "power": p}


def shift_block(p: int, rng: random.Random) -> dict:
    return {"kind": "shift", "weights": shift_json(p, rng)}


def section_tail_ratio(p: int, N: int, r: float) -> float:
    """Predicted ``|t_N|^2 / (1 - rho)`` for the szego(p) shift's kernel vector.

    This is the tail estimate the frame solver compares with ``1e-10`` of the
    truncated norm (which is at least 1).
    """
    rho = r * r * (N + p) / (N + 1)
    if rho >= 1.0:
        return math.inf
    log_tn2 = 2 * N * math.log(r) + math.lgamma(N + p) - math.lgamma(N + 1) - math.lgamma(p)
    return math.exp(log_tn2) / (1.0 - rho)


def frame_radius_max(N: int, powers) -> float:
    """Largest radius (on a 0.005 grid, at most 0.94) whose sections are certified."""
    r = 0.94
    while r > 0.3 and any(section_tail_ratio(p, N, r) > VALID_TAIL_RATIO for p in powers):
        r = round(r - 0.005, 3)
    return r


# ---------------------------------------------------------------------------
# dense-window families

def hyper_szego(rng, N, k=None):
    p = rng.randint(1, 3)
    k = k if k is not None else rng.randint(1, 3)
    req = {"command": "hypercontract", "shift": shift_json(p, rng), "order": k, "N": N}
    # szego(p) is a k-hypercontraction exactly for k <= p
    return Case("hyper-szego", req, {"weights": ["szego", p], "order": k, "N": N,
                                     "verdicts": [j <= p for j in range(1, k + 1)]})


def hyper_counterexample(rng, N, k=None):
    k = k if k is not None else rng.randint(2, 3)
    req = {"command": "hypercontract",
           "shift": {"prefix": [COUNTEREXAMPLE_PREFIX], "tail": {"p": [1, 1], "q": [2, 1]}},
           "order": k, "N": N}
    # 13/25 > 1/2 breaks order 2 (and therefore every higher order) at index 1
    return Case("hyper-counterexample", req, {"weights": ["counterexample", 2], "order": k, "N": N,
                                              "verdicts": [j == 1 for j in range(1, k + 1)]})


def contraction_coupling(rng, n):
    pa, pb, k = rng.randint(2, 3), rng.randint(1, 3), rng.randint(1, 3)
    inside = rng.random() < 0.5
    a2 = [(i + 1) / (i + pa) for i in range(k)]
    b2 = [(i + 1) / (i + pb) for i in range(k)]
    bounds = [1.0 - a2[0]] + [(1.0 - a2[i]) * (1.0 - b2[i - 1]) for i in range(1, k)]
    d = [math.sqrt(rng.uniform(0.3, 0.8) * bd) * rng.choice((-1, 1)) for bd in bounds]
    if not inside:
        d[0] = math.sqrt(rng.uniform(1.25, 1.8) * bounds[0])
    req = {"command": "contraction", "N": n, "operator": {"grid": [
        [shift_block(pa, rng), {"kind": "diagonal", "values": d}],
        [None, shift_block(pb, rng)]]}}
    return Case("contraction", req, {"pa": pa, "pb": pb, "d": d, "n": n, "contraction": inside})


def cascade(rng, n, coupled, k=None):
    k = k if k is not None else rng.randint(1, 3)
    pb = rng.randint(k, 3)
    if coupled:
        idx = rng.randrange(0, 4)
        values = [0.0] * idx + [rng.uniform(0.2, 0.5)]
        t12 = {"kind": "diagonal", "values": values}
    else:
        values = []
        t12 = rng.choice((None, {"kind": "zero"}))
    req = {"command": "reduce", "detector": "cascade", "order": k, "operator": {
        "grid": [[shift_block(k, rng), t12], [None, shift_block(pb, rng)]], "N": n}}
    return Case("cascade", req, {"order": k, "n": n, "coupled": coupled, "d": values})


def unit_norm(rng, n):
    variant = rng.choice(("top", "bottom", "none"))
    scale = round(rng.uniform(0.2, 0.8), 6)
    p = rng.randint(1, 3)
    if variant == "top":
        grid = [[shift_block(1, rng), None], [None, {**shift_block(p, rng), "scale": scale}]]
    elif variant == "bottom":
        grid = [[{**shift_block(p, rng), "scale": scale}, {"kind": "zero"}], [None, shift_block(1, rng)]]
    else:
        grid = [[shift_block(2, rng), None], [None, shift_block(3, rng)]]
    req = {"command": "reduce", "detector": "unit-norm-block", "operator": {"grid": grid, "N": n}}
    return Case("unit-norm", req, {"variant": variant, "n": n})


def rank_one(rng, N, reducible=None):
    p = rng.randint(1, 3)
    reducible = reducible if reducible is not None else rng.random() < 0.5
    k = p if reducible else rng.choice([j for j in (1, 2, 3, 4) if j != p])
    req = {"command": "reduce", "detector": "rank-one-defect", "order": k,
           "operator": {"grid": [[shift_block(p, rng)]], "N": N}}
    radii = None
    if rng.random() < 0.5:
        radii = sorted({round(rng.uniform(0.1, 0.7), 6) for _ in range(5)})
        req["radii"] = {"kind": "explicit", "values": radii}
    return Case("rank-one", req, {"p": p, "order": k, "N": N, "radii": radii})


# ---------------------------------------------------------------------------
# series-boundary families

def curvature_szego(rng, method, p=None):
    p = p if p is not None else rng.randint(1, 4)
    explicit = rng.random() < 0.3
    req = {"command": "curvature", "kernel": kernel_json(p, explicit),
           "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12}, "method": method}
    return Case("curvature", req, {"p": p, "c": None, "preset": not explicit, "method": method,
                                   "k_min": 3, "k_max": 12})


def curvature_rational(rng, method, p=None):
    """Kernel ``b_0 = c``, ``b_n = C(n+p-1, n)`` for ``n >= 1``: ``g = c - 1 + (1-t)^-p``."""
    p = p if p is not None else rng.randint(1, 3)
    c = round(rng.uniform(0.5, 2.0), 6)
    req = {"command": "curvature", "kernel": {"prefix": [c], "tail": kernel_tail(p)},
           "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12}, "method": method}
    return Case("curvature", req, {"p": p, "c": c, "preset": False, "method": method,
                                   "k_min": 3, "k_max": 12})


def simdiag_kernels(rng, count):
    ps = [rng.randint(1, 3) for _ in range(count)]
    q, n = rng.randint(1, 3), rng.randint(1, 3)
    k_max = 12
    e = n * q - sum(ps)
    s_min = 1.0 - ANALYTIC_RADIUS_CAP ** 2
    max_ratio = s_min ** e if e < 0 else 1.0
    req = {"command": "simdiag",
           "source": {"kind": "kernels", "kernels": [kernel_json(p, rng.random() < 0.3) for p in ps]},
           "kernel": kernel_json(q, False), "multiplicity": n,
           "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": k_max}}
    bound = 1e6
    if rng.random() < 0.5:
        # keep the boundedness verdict decidable: bound and max ratio differ by 2x or more
        while True:
            bound = round(10 ** rng.uniform(2.0, 7.0), 3)
            if not 0.5 < bound / max_ratio < 2.0:
                break
        req["bound"] = bound
    return Case("simdiag-kernels", req, {"ps": ps, "q": q, "n": n, "k_max": k_max, "bound": bound})


def shields(rng, H):
    pa, pb = rng.randint(1, 4), rng.randint(1, 4)
    req = {"command": "shields", "a": shift_json(pa, rng), "b": shift_json(pb, rng), "horizon": H}
    # keep the verdict decidable: the diverging extreme at the last horizon and
    # the threshold differ by a factor of 1.28 or more
    extreme = abs(shields_log_product(pa, pb, 4 * H))
    threshold = 1e3
    if rng.random() < 0.5 or abs(extreme - math.log(threshold)) <= 0.25:
        while True:
            threshold = round(10 ** rng.uniform(1.0, 4.0), 3)
            if abs(extreme - math.log(threshold)) > 0.25:
                break
        req["threshold"] = threshold
    return Case("shields", req, {"pa": pa, "pb": pb, "H": H, "threshold": threshold})


def shields_log_product(pa: int, pb: int, h: int) -> float:
    """``log prod_{l<h} a_l/b_l`` for szego(pa) over szego(pb): the diverging extreme."""
    return 0.5 * (math.lgamma(h + pb) - math.lgamma(pb) - math.lgamma(h + pa) + math.lgamma(pa))


# ---------------------------------------------------------------------------
# frame-similarity families

def simdiag_block(rng, N, coupled, count):
    p1, p2, q = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
    r_max = frame_radius_max(N, (p1, p2))
    start = round(rng.uniform(0.05, 0.3), 6)
    stop = round(r_max - rng.uniform(0.0, 0.05), 6)
    if coupled:
        k = rng.randint(1, 3)
        d = [round(rng.uniform(0.05, 0.6) * rng.choice((-1, 1)), 6) for _ in range(k)]
        t12 = {"kind": "diagonal", "values": d}
    else:
        d = []
        t12 = rng.choice((None, {"kind": "zero"}))
    req = {"command": "simdiag",
           "source": {"kind": "block", "operator": {
               "grid": [[shift_block(p1, rng), t12], [None, shift_block(p2, rng)]], "N": N}},
           "kernel": kernel_json(q, False), "multiplicity": 2,
           "radii": {"kind": "linear", "start": start, "stop": stop, "count": count}}
    return Case("simdiag-block", req, {"p1": p1, "p2": p2, "q": q, "d": d, "N": N,
                                       "radii": ["linear", start, stop, count]})


def ex_commutator(rng, N):
    x = [round(rng.uniform(-0.9, 0.9), 6) for _ in range(rng.randint(1, 4))]
    req = {"command": "ex-commutator", "x_diag": x, "N": N}
    radii = None
    if rng.random() < 0.5:
        r_max = frame_radius_max(N, (1,))
        radii = sorted({round(rng.uniform(0.05, r_max), 6) for _ in range(9)})
        req["radii"] = {"kind": "explicit", "values": radii}
    return Case("ex-commutator", req, {"x": x, "N": N, "radii": radii})


# ---------------------------------------------------------------------------
# deliberately invalid requests (fixed expected exit codes)

def invalid_unknown_field(rng, base):
    case = base(rng)
    req = dict(case.request, verbose=True)
    return Case("invalid", req, {"exit": 2, "message": "verbose"})


def invalid_order_too_deep(rng):
    N = rng.choice((16, 32, 64))
    req = {"command": "hypercontract", "shift": shift_json(2, rng), "order": N // 2, "N": N}
    return Case("invalid", req, {"exit": 3})


def invalid_curvature_radius(rng):
    values = [0.5, round(rng.uniform(1.0, 1.5), 6)]
    req = {"command": "curvature", "kernel": kernel_json(rng.randint(1, 3), False),
           "radii": {"kind": "explicit", "values": values}}
    return Case("invalid", req, {"exit": 3})


def invalid_frame_radius(rng):
    case = simdiag_block(rng, 64, False, 2)
    req = dict(case.request, radii={"kind": "explicit", "values": [0.5, round(rng.uniform(0.97, 1.2), 6)]})
    return Case("invalid", req, {"exit": 3})


def invalid_frame_truncation(rng):
    # hardy sections at r >= 0.9 need far more than 32 terms for a 1e-10 tail
    r = round(rng.uniform(0.9, 0.94), 6)
    req = {"command": "ex-commutator", "x_diag": [0.5], "N": 32, "radii": {"kind": "explicit", "values": [r]}}
    return Case("invalid", req, {"exit": 4})


# ---------------------------------------------------------------------------
# rounds

def _slot(fn, **kwargs):
    return lambda rng: fn(rng, **kwargs)


#: Sizes are the dimension of the dense matrix a request certifies: ``N`` for
#: single shifts, twice the block order for 2x2 block operators.  Slots are
#: listed cheapest first.  The p50 rank (10|11 of 20) falls among five
#: size-128 requests of similar cost and the p90 rank (18|19) between the two
#: order-2 requests at size 512, so neither sits on a gap between classes.
DENSE_WINDOW = [
    _slot(hyper_szego, N=64), _slot(contraction_coupling, n=32), _slot(rank_one, N=64),
    _slot(unit_norm, n=64), _slot(contraction_coupling, n=64), _slot(cascade, n=64, coupled=True),
    _slot(hyper_counterexample, N=128, k=2), _slot(hyper_szego, N=128, k=2),
    _slot(hyper_szego, N=128, k=2), _slot(hyper_szego, N=128, k=2),
    _slot(cascade, n=64, coupled=False, k=2),
    _slot(rank_one, N=128, reducible=True), _slot(hyper_szego, N=256, k=2),
    _slot(cascade, n=128, coupled=False, k=2),
    _slot(contraction_coupling, n=256), _slot(rank_one, N=256, reducible=True),
    _slot(hyper_szego, N=512, k=2), _slot(hyper_counterexample, N=512, k=2),
    _slot(hyper_szego, N=1024, k=1),
]
DENSE_INVALID = [
    lambda rng: invalid_unknown_field(rng, _slot(hyper_szego, N=64)),
    invalid_order_too_deep,
]

#: A series curvature request costs more as the kernel power ``p`` grows, so
#: each series slot fixes ``p``.  The p50 rank (10|11 of 20) falls on the two
#: ``p = 3`` slots, which cost about the same; the p90 rank (18|19) among the
#: two-kernel ``simdiag`` requests.
SERIES_BOUNDARY = [
    _slot(shields, H=2 ** 10), _slot(shields, H=2 ** 12), _slot(shields, H=2 ** 14),
    _slot(shields, H=2 ** 14), _slot(shields, H=2 ** 16),
    *[_slot(curvature_szego, method="series", p=p) for p in (1, 2, 3, 4)],
    *[_slot(curvature_rational, method="series", p=p) for p in (1, 2, 3)],
    *[_slot(curvature_szego, method="finite-difference")] * 2,
    _slot(curvature_rational, method="finite-difference"),
    _slot(simdiag_kernels, count=1), _slot(simdiag_kernels, count=2),
    _slot(simdiag_kernels, count=2), _slot(simdiag_kernels, count=3),
]
SERIES_INVALID = [
    lambda rng: invalid_unknown_field(rng, _slot(curvature_szego, method="series")),
    invalid_curvature_radius,
]

FRAME_SIMILARITY = [
    _slot(simdiag_block, N=128, coupled=False, count=5), _slot(simdiag_block, N=128, coupled=False, count=5),
    _slot(simdiag_block, N=128, coupled=True, count=5), _slot(simdiag_block, N=128, coupled=True, count=5),
    *[_slot(ex_commutator, N=160)] * 8,
    _slot(simdiag_block, N=256, coupled=False, count=5), _slot(simdiag_block, N=256, coupled=True, count=5),
    _slot(simdiag_block, N=256, coupled=True, count=5),
    *[_slot(ex_commutator, N=320)] * 3,
    _slot(simdiag_block, N=512, coupled=True, count=4),
]
FRAME_INVALID = [
    lambda rng: invalid_unknown_field(rng, _slot(ex_commutator, N=160)),
    invalid_frame_radius,
    invalid_frame_truncation,
]

WORKLOADS = {
    "dense-window": (DENSE_WINDOW, DENSE_INVALID),
    "series-boundary": (SERIES_BOUNDARY, SERIES_INVALID),
    "frame-similarity": (FRAME_SIMILARITY, FRAME_INVALID),
}


class RequestStream:
    """Rounds of requests for one workload, fully determined by the seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
        self.slots, self.invalid = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}:{seed}")

    def next_round(self) -> list[Case]:
        cases = [slot(self.rng) for slot in self.slots]
        cases.append(self.rng.choice(self.invalid)(self.rng))
        self.rng.shuffle(cases)
        return cases


def warmup_cases(workload: str) -> list[Case]:
    """One small request per command of the workload (untimed, fixed seed)."""
    rng = random.Random(f"warmup:{workload}")
    if workload == "dense-window":
        return [hyper_szego(rng, 64), contraction_coupling(rng, 32), cascade(rng, 32, False),
                unit_norm(rng, 32), rank_one(rng, 64, True)]
    if workload == "series-boundary":
        return [shields(rng, 2 ** 10), curvature_szego(rng, "series"), simdiag_kernels(rng, 1)]
    return [simdiag_block(rng, 128, True, 2), ex_commutator(rng, 160)]


#: The request each set-up measurement sends through a fresh interpreter.
MINIMAL_REQUEST = {"command": "hypercontract", "shift": {"preset": "szego", "power": 2}, "order": 1, "N": 16}
