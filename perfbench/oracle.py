"""Judge each command-line outcome against the family that generated it.

Verdicts and exit codes are compared exactly.  Floats are compared with
closed forms within the tolerances below, never byte for byte, so a faster
algorithm with different round-off still passes.  The closed forms are
computed here from the family parameters, independently of ``cdlab``:

* shift defects are diagonal, ``D_k[m] = sum_j (-1)^j C(k,j) prod w_l^2``;
* a diagonal coupling of two shifts is a contraction exactly when
  ``d_1^2 <= 1 - a_1^2`` and ``d_i^2 <= (1 - a_i^2)(1 - b_{i-1}^2)``
  (the criterion of ``blockops.ex48_closed_form``);
* szego(p) curvature is ``-p/(1-r^2)^2``;
* a direct sum of szego(p_i) metrics against ``K^n`` with ``K`` szego(q) has
  det ratio ``(1-t)^(nq - sum p_i)``;
* the commutator coupling has ``det h = h^2 + h P(t) - Q(t)^2``.

Diagnostics that the documentation does not promise to be accurate
(``witness_passed`` and the finite-difference ``closed_form_match``) are
checked for consistency with the report's own numbers only.  When they
disagree with the mathematics, the disagreement is recorded as a *note*, not
a failure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .workloads import COUNTEREXAMPLE_PREFIX, Case, shields_log_product

#: Absolute tolerance on defect minimum eigenvalues, scaled by ``2^order``.
EIG_ATOL = 1e-9
#: Relative tolerance on certified series sums (curvature, metrics, ratios).
SERIES_RTOL = 1e-9
#: Relative tolerance on finite-difference curvature and Laplacians.  The
#: stencil step shrinks to ``h = (1 - r)/10`` near the boundary, which leaves a
#: relative truncation error of about ``(h/(1-r))^2 / 2 = 5e-3``.
FD_RTOL = 1e-2
#: Relative tolerance on frame-solver determinants (sections are certified
#: to ``1e-10``; requests keep the predicted tail below ``1e-13``).
FRAME_RTOL = 1e-8


@dataclass
class Outcome:
    """What one command-line call produced."""

    exit_code: int
    stderr: str
    report: str | None
    csv: str | None


@dataclass
class Judgement:
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def require(self, ok, message: str) -> None:
        if not ok:
            self.problems.append(message)


def _close(got, want, rtol=0.0, atol=0.0) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= atol + rtol * np.abs(want)))


def _csv_columns(text: str) -> dict[str, np.ndarray]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    cols = {}
    for i, name in enumerate(header):
        values = [row[i] for row in rows]
        try:
            cols[name] = np.array([float(v) for v in values])
        except ValueError:
            cols[name] = np.array(values)
    return cols


def szego_weights(p: int, count: int) -> np.ndarray:
    i = np.arange(count, dtype=float)
    return np.sqrt((i + 1.0) / (i + p))


def defect_diagonal(w: np.ndarray, k: int, N: int) -> np.ndarray:
    """Diagonal of ``sum_j (-1)^j C(k,j) (T*)^j T^j`` for the truncated shift."""
    w2 = np.asarray(w, dtype=float) ** 2
    D = np.ones(N)
    P = np.ones(N)
    for j in range(1, k + 1):
        nxt = np.zeros(N)
        nxt[j:] = P[j:] * w2[: N - j]
        P = nxt
        D += (-1) ** j * math.comb(k, j) * P
    return D


# ---------------------------------------------------------------------------
# dense-window families

def _check_hyper(case: Case, rep: dict, j: Judgement) -> None:
    e = case.expect
    N, k = e["N"], e["order"]
    kind, p = e["weights"]
    w = szego_weights(p, N - 1)
    if kind == "counterexample":
        w[0] = COUNTEREXAMPLE_PREFIX
    j.require(rep["orders"] == list(range(1, k + 1)), f"orders {rep['orders']}")
    j.require(rep["N"] == N and rep["window"] == N - k, f"N/window {rep['N']}/{rep['window']}")
    j.require(rep["verdicts"] == e["verdicts"], f"verdicts {rep['verdicts']} != {e['verdicts']}")
    j.require(rep["passed"] == all(e["verdicts"]), f"passed {rep['passed']}")
    first = next((i + 1 for i, ok in enumerate(e["verdicts"]) if not ok), None)
    j.require(rep["first_failure"] == first, f"first_failure {rep['first_failure']} != {first}")
    exact = [float(np.min(defect_diagonal(w, kk, N)[: N - kk])) for kk in range(1, k + 1)]
    j.require(_close(rep["min_eigenvalues"], exact, atol=EIG_ATOL * 2 ** k),
              f"min eigenvalues {rep['min_eigenvalues']} vs diagonal form {exact}")


def coupling_is_contraction(pa: int, pb: int, d) -> bool:
    """The closed-form contraction criterion for ``[[shift(a), diag(d)], [0, shift(b)]]``."""
    k = len(d)
    a2 = szego_weights(pa, k) ** 2
    b2 = szego_weights(pb, k) ** 2
    if d[0] ** 2 > 1.0 - a2[0]:
        return False
    return all(d[i] ** 2 <= (1.0 - a2[i]) * (1.0 - b2[i - 1]) for i in range(1, k))


def _check_contraction(case: Case, rep: dict, j: Judgement) -> None:
    e = case.expect
    n, d = e["n"], e["d"]
    want = coupling_is_contraction(e["pa"], e["pb"], d)
    j.require(want == e["contraction"], "generator and closed form disagree")
    j.require(rep["is_contraction"] == want, f"is_contraction {rep['is_contraction']} != {want}")
    norms = [[szego_weights(e["pa"], n - 1)[-1], max(abs(x) for x in d)],
             [0.0, szego_weights(e["pb"], n - 1)[-1]]]
    j.require(_close(rep["window_norms"], norms, rtol=1e-9, atol=1e-12),
              f"window norms {rep['window_norms']} vs {norms}")
    flags = [[x <= 1.0 + 1e-8 for x in row] for row in norms]
    j.require(rep["blocks_contractive"] == flags, f"blocks_contractive {rep['blocks_contractive']}")


def _check_cascade(case: Case, rep: dict, j: Judgement) -> None:
    e = case.expect
    j.require(rep["detector"] == "cascade", f"detector {rep['detector']}")
    if not e["coupled"]:
        j.require(rep["reducible"] is True, f"reducible {rep['reducible']} for a direct sum")
        j.require(rep["witness"].startswith("off-diagonal block forced to zero"), f"witness {rep['witness']!r}")
        return
    # a nonzero coupling under the order-k model shift breaks some defect of order <= k
    j.require(rep["reducible"] is None, f"reducible {rep['reducible']} for a coupled operator")
    prefix = "hypercontractivity fails at order "
    ok = rep["witness"].startswith(prefix) and 1 <= int(rep["witness"][len(prefix):].split()[0]) <= e["order"]
    j.require(ok, f"witness {rep['witness']!r}")


def _check_unit_norm(case: Case, rep: dict, j: Judgement) -> None:
    variant = case.expect["variant"]
    j.require(rep["detector"] == "unit-norm-block", f"detector {rep['detector']}")
    if variant == "none":
        j.require(rep["reducible"] is None, f"reducible {rep['reducible']}")
        j.require(rep["witness"] == "no diagonal block with norm 1 on the window", f"witness {rep['witness']!r}")
        return
    i = 0 if variant == "top" else 1
    j.require(rep["reducible"] is True, f"reducible {rep['reducible']}")
    j.require(rep["witness"].startswith(f"diagonal block ({i},{i}) has norm 1"), f"witness {rep['witness']!r}")


def _check_rank_one(case: Case, rep: dict, j: Judgement) -> None:
    e = case.expect
    p = e["p"]
    j.require(rep["detector"] == "rank-one-defect", f"detector {rep['detector']}")
    s = rep["top_singular_values"]
    if e["order"] != p:
        j.require(rep["reducible"] is None, f"reducible {rep['reducible']} at order {e['order']} != {p}")
        j.require(rep["witness"].startswith("defect rank exceeds one"), f"witness {rep['witness']!r}")
        j.require(s[1] > 1e-8, f"second singular value {s[1]}")
        return
    j.require(rep["reducible"] is True, f"reducible {rep['reducible']}: {rep['witness']!r}")
    j.require(_close(s, [1.0, 0.0], atol=1e-8), f"singular values {s}")
    radii = np.array(e["radii"]) if e["radii"] is not None else np.arange(0.1, 0.75, 0.1)
    j.require(_close(rep["radii"], radii, atol=1e-15), f"radii {rep['radii']}")
    t = radii ** 2
    j.require(_close(rep["metric_samples"], (1.0 - t) ** -float(p), rtol=1e-8), "section metric != (1-r^2)^-p")
    j.require(_close(rep["curvature_samples"], -p / (1.0 - t) ** 2, rtol=1e-12), "curvature != -p/(1-r^2)^2")


# ---------------------------------------------------------------------------
# series-boundary families

def curvature_closed_form(p: int, c: float | None, r: np.ndarray) -> np.ndarray:
    """Curvature of ``g(t) = (c - 1) + (1-t)^-p`` (plain szego(p) when ``c`` is None)."""
    t = r * r
    s = 1.0 - t
    if c is None:
        return -p / s ** 2
    g = (c - 1.0) + s ** -float(p)
    g1 = p * s ** (-p - 1.0)
    # g'' g - g'^2 with the s^(-2p-2) terms combined exactly
    num = p * s ** (-2.0 * p - 2.0) + (c - 1.0) * p * (p + 1) * s ** (-p - 2.0)
    return -(t * num / g ** 2 + g1 / g)


def _check_curvature(case: Case, rep: dict, csv: dict, j: Judgement) -> None:
    e = case.expect
    series = e["method"] == "series"
    r = 1.0 - 2.0 ** -np.arange(e["k_min"], e["k_max"] + 1, dtype=float)
    exact = curvature_closed_form(e["p"], e["c"], r)
    vals = csv["value"]
    j.require(rep["samples"] == len(r) and rep["method"] == e["method"], "samples/method")
    j.require(_close(csv["r"], r, atol=1e-15), "csv radii")
    j.require(list(csv["method"]) == [e["method"]] * len(r), "csv method column")
    j.require(_close(vals, exact, rtol=SERIES_RTOL if series else FD_RTOL),
              f"curvature vs closed form: worst rel {np.max(np.abs(vals / exact - 1.0)):.3e}")
    j.require(rep["min_value"] == float(np.min(vals)) and rep["max_value"] == float(np.max(vals)), "min/max")
    if not e["preset"]:
        j.require(rep["closed_form_match"] is None, f"closed_form_match {rep['closed_form_match']}")
        return
    if series:
        j.require(rep["closed_form_match"] is True, f"closed_form_match {rep['closed_form_match']}")
        return
    consistent = bool(np.max(np.abs(vals - exact) / np.abs(exact)) <= 1e-5)
    j.require(rep["closed_form_match"] == consistent, f"closed_form_match {rep['closed_form_match']}")
    if not rep["closed_form_match"]:
        j.notes.append("finite-difference closed_form_match false near the boundary")


def _witness_tolerance(radii: np.ndarray, step: float = 1e-3) -> float:
    h = max(min(step, (1.0 - r) / 10.0, r / 3.0) for r in radii)
    return max(1e-4, 50.0 * h * h)


def _check_witness_columns(csv: dict, verdicts: dict, j: Judgement) -> None:
    """Internal consistency of the witness numbers a report prints."""
    lap4 = csv["laplacian_phi"] / 4.0
    residual = csv["residual"]
    j.require(_close(residual, np.abs(csv["trace_curv_diff"] - lap4), rtol=1e-9, atol=1e-300),
              "residual column != |trace_curv_diff - laplacian_phi/4|")
    j.require(math.isclose(verdicts["witness_residual"], float(np.nanmax(residual)), rel_tol=1e-12),
              "witness_residual != max residual")
    j.require(verdicts["witness_passed"] == (verdicts["witness_residual"] < verdicts["witness_tolerance"]),
              "witness_passed inconsistent with residual and tolerance")


def _check_simdiag_kernels(case: Case, rep: dict, csv: dict, j: Judgement) -> None:
    e = case.expect
    r = 1.0 - 2.0 ** -np.arange(3, e["k_max"] + 1, dtype=float)
    s = 1.0 - r * r
    ex = e["n"] * e["q"] - sum(e["ps"])
    ratio = s ** float(ex)
    scale = (e["n"] * e["q"] + sum(e["ps"])) / s ** 2
    v = rep["verdicts"]
    j.require(rep["samples"] == len(r) and rep["multiplicity"] == e["n"], "samples/multiplicity")
    j.require(_close(csv["r"], r, atol=1e-15), "csv radii")
    j.require(_close(csv["ratio"], ratio, rtol=SERIES_RTOL), "det ratio != (1-t)^(nq - sum p)")
    j.require(_close(csv["phi"], ex * np.log(s), rtol=SERIES_RTOL, atol=SERIES_RTOL), "phi != log ratio")
    j.require(_close(csv["trace_curv_diff"], -ex / s ** 2, atol=1e-8 * scale), "trace curvature difference")
    j.require(_close(csv["laplacian_phi"] / 4.0, -ex / s ** 2, atol=FD_RTOL * max(abs(ex), 1) / s ** 2),
              "finite-difference Laplacian of phi")
    j.require(_close([v["max_ratio"], v["min_ratio"]], [ratio.max(), ratio.min()], rtol=SERIES_RTOL), "max/min ratio")
    j.require(v["upper_bound_ok"] == bool(ratio.max() < e["bound"]), f"upper_bound_ok {v['upper_bound_ok']}")
    j.require(v["boundary_limit_positive"] == (ex == 0), f"boundary_limit_positive {v['boundary_limit_positive']}")
    j.require(math.isclose(v["phi_sup"], float(np.max(np.abs(ex * np.log(s)))), rel_tol=SERIES_RTOL, abs_tol=1e-12),
              "phi_sup")
    j.require(v["witness_tolerance"] == _witness_tolerance(r), "witness tolerance")
    j.require(v["source"] == "analytic" and v["radius_cap"] is None, "source/radius_cap")
    _check_witness_columns(csv, v, j)
    lap = csv["laplacian_phi"]
    j.require(v["subharmonic_ok"] == bool(np.all(lap >= -max(1e-10, v["witness_tolerance"]))), "subharmonic_ok")
    if not v["witness_passed"]:
        j.notes.append("witness check fails near the boundary although the identity holds exactly")


def shields_extremes(pa: int, pb: int, h: int) -> tuple[float, float]:
    """``(log sup, log inf)`` of ``prod_{l=i}^{j} a_l/b_l`` over ``0 <= i <= j < h``."""
    full = shields_log_product(pa, pb, h)
    last = 0.5 * math.log((h - 1 + pb) / (h - 1 + pa))
    if pb > pa:
        return full, last
    if pb < pa:
        return last, full
    return 0.0, 0.0


def _check_shields(case: Case, rep: dict, j: Judgement) -> None:
    e = case.expect
    hs = [e["H"], 2 * e["H"], 4 * e["H"]]
    ext = [shields_extremes(e["pa"], e["pb"], h) for h in hs]
    log_sup = [x[0] for x in ext]
    log_inf = [x[1] for x in ext]
    thr = math.log(e["threshold"])
    diverges = (e["pb"] > e["pa"] and log_sup[2] > thr) or (e["pb"] < e["pa"] and log_inf[2] < -thr)
    want = "not-similar" if diverges else "similar-consistent"
    j.require(rep["verdict"] == want, f"verdict {rep['verdict']} != {want}")
    j.require(rep["horizons"] == hs, f"horizons {rep['horizons']}")
    j.require(_close(rep["log_sup_at_horizons"], log_sup, rtol=SERIES_RTOL, atol=SERIES_RTOL), "log sup")
    j.require(_close(rep["log_inf_at_horizons"], log_inf, rtol=SERIES_RTOL, atol=SERIES_RTOL), "log inf")
    j.require(_close(rep["sup_ratio_at_horizons"], np.exp(log_sup), rtol=1e-8), "sup ratios")
    j.require(_close([rep["sup_ratio"], rep["inf_ratio"]], np.exp([log_sup[2], log_inf[2]]), rtol=1e-8), "extremes")


# ---------------------------------------------------------------------------
# frame-similarity families

def coupled_det(p1: int, p2: int, d, r: float) -> float:
    """``det h`` of the frame ``(t1, 0), (g, t2)`` for ``[[S_p1, diag(d)], [0, S_p2]]``.

    ``g`` solves ``(S_p1 - r) g = -diag(d) t2``.  From index ``len(d)`` on,
    ``g`` follows the recursion of ``t1``, so ``g - c t1`` is finitely
    supported; ``det h = |t1|^2 (|t2|^2 + |g'|^2) - <t1, g'>^2`` for that
    gauge, with ``|t_i|^2 = (1 - r^2)^-p_i``.
    """
    k = len(d)
    a = szego_weights(p1, k + 1)
    b = szego_weights(p2, k + 1)
    t1 = np.ones(k + 1)
    t2 = np.ones(k + 1)
    g = np.zeros(k + 1)
    for i in range(k):
        t1[i + 1] = r * t1[i] / a[i]
        t2[i + 1] = r * t2[i] / b[i]
        g[i + 1] = (r * g[i] - d[i] * t2[i]) / a[i]
    gp = g[:k] - (g[k] / t1[k]) * t1[:k]
    s = 1.0 - r * r
    h1, h2 = s ** -float(p1), s ** -float(p2)
    return h1 * (h2 + float(gp @ gp)) - float(t1[:k] @ gp) ** 2


def _check_simdiag_block(case: Case, rep: dict, csv: dict, j: Judgement) -> None:
    e = case.expect
    _, start, stop, count = e["radii"]
    r = np.linspace(start, stop, count)
    s = 1.0 - r * r
    if e["d"]:
        det = np.array([coupled_det(e["p1"], e["p2"], e["d"], x) for x in r])
    else:
        det = s ** -float(e["p1"] + e["p2"])
    ratio = det * s ** (2.0 * e["q"])
    v = rep["verdicts"]
    j.require(rep["samples"] == count and rep["multiplicity"] == 2, "samples/multiplicity")
    j.require(_close(csv["r"], r, atol=1e-15), "csv radii")
    j.require(_close(csv["ratio"], ratio, rtol=FRAME_RTOL), "frame det ratio vs closed form")
    j.require(_close(csv["phi"], np.log(ratio), atol=FRAME_RTOL), "phi != log ratio")
    for name in ("laplacian_phi", "trace_curv_diff", "residual"):
        j.require(bool(np.all(np.isnan(csv[name]))), f"{name} column should be empty for a frame source")
    j.require(_close([v["max_ratio"], v["min_ratio"]], [ratio.max(), ratio.min()], rtol=FRAME_RTOL), "max/min")
    j.require(v["source"] == "frame" and v["radius_cap"] == 0.95, "source/radius_cap")
    j.require(v["upper_bound_ok"] is None and v["boundary_limit_positive"] is None, "verdicts unset")
    j.require("witness_passed" not in v, "no witness for frame sources")


def commutator_ratio(x, r: np.ndarray) -> np.ndarray:
    """``det h_T / K^2 = 1 + s P(t) - s^2 Q(t)^2`` with ``s = 1 - t``."""
    t = r * r
    s = 1.0 - t
    x = np.asarray(x, dtype=float)
    powers = t[:, None] ** np.arange(len(x))[None, :]
    P = powers @ (x * x)
    Q = powers @ x
    return 1.0 + s * P - (s * Q) ** 2


def _check_ex_commutator(case: Case, rep: dict, csv: dict, j: Judgement) -> None:
    e = case.expect
    r = np.array(e["radii"]) if e["radii"] is not None else np.arange(0.1, 0.95, 0.1)
    ratio = commutator_ratio(e["x"], r)
    j.require(rep["closed_form_check"] is True and rep["pinch_ok"] is True, "closed-form check / pinch")
    j.require(rep["max_relative_error"] <= 1e-8, f"max relative error {rep['max_relative_error']}")
    j.require(rep["x_norm"] == max(abs(v) for v in e["x"]), f"x_norm {rep['x_norm']}")
    j.require(_close(csv["r"], r, atol=1e-15), "csv radii")
    j.require(_close(csv["ratio"], ratio, rtol=FRAME_RTOL), "commutator det ratio vs closed form")
    j.require(rep["witness_tolerance"] == _witness_tolerance(r), "witness tolerance")
    _check_witness_columns(csv, rep, j)
    if not rep["witness_passed"]:
        j.notes.append("commutator witness check fails although the identity holds exactly")


_CHECKS = {
    "hyper-szego": _check_hyper,
    "hyper-counterexample": _check_hyper,
    "contraction": _check_contraction,
    "cascade": _check_cascade,
    "unit-norm": _check_unit_norm,
    "rank-one": _check_rank_one,
    "shields": _check_shields,
}
_CSV_CHECKS = {
    "curvature": _check_curvature,
    "simdiag-kernels": _check_simdiag_kernels,
    "simdiag-block": _check_simdiag_block,
    "ex-commutator": _check_ex_commutator,
}


def judge(case: Case, out: Outcome) -> Judgement:
    """Compare one outcome with the case's known answer."""
    j = Judgement()
    if out.exit_code != case.exit_code:
        j.problems.append(f"exit code {out.exit_code} != {case.exit_code}: {out.stderr.strip()[:200]}")
        return j
    if case.exit_code != 0:
        j.require(out.report is None, "a report was written for a rejected request")
        if "message" in case.expect:
            j.require(case.expect["message"] in out.stderr, f"stderr does not name {case.expect['message']!r}")
        return j
    if out.report is None:
        j.problems.append("no report written")
        return j
    rep = json.loads(out.report)
    j.require(rep.get("command") == case.request["command"], f"command {rep.get('command')}")
    try:
        if case.family in _CSV_CHECKS:
            if out.csv is None:
                j.problems.append("no CSV written")
                return j
            _CSV_CHECKS[case.family](case, rep, _csv_columns(out.csv), j)
        else:
            j.require(out.csv is None, "unexpected CSV")
            _CHECKS[case.family](case, rep, j)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        j.problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return j
