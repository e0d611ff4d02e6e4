"""Similarity diagnostics: determinant-ratio profiles and witness checks.

For an operator with bundle metric ``h`` and the rank-``n`` model built on a
diagonal kernel ``K``, the profile sampled here is
``ratio(r) = det h(r) / K(r, r)^n``.  Boundedness of the ratio and a
positive boundary limit are the numerically checkable hypotheses of the
similarity criterion; the bounded-subharmonic witness is
``phi = log ratio``, whose quarter-Laplacian must reproduce the trace
curvature difference between the model and the operator.

The diagnostics never assert similarity: a finite grid can certify a failed
hypothesis, or report the hypotheses numerically consistent, nothing more.

The commutator example's coupling ``X M - M X`` (``X`` diagonal) reaches the
frame solver as its ``len(x)`` superdiagonal entries; its closed form is one
polynomial, ``det h_T (1 - t)^2`` in ``t = r^2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .blockops import FRAME_RADIUS_CAP, BlockOperator, ShiftBlock, _EntryBlock, frame_solver
from .errors import ConfigurationError, DomainError, NonFiniteError
from .matrix_core import hermitian_det
from .rkhs import ANALYTIC_RADIUS_CAP, DiagonalKernel, _curvature, _float, boundary_radii, radial_laplacian, series_pass
from .shifts import hardy


@dataclass(frozen=True)
class SimilarityDiagnostic:
    """Radial det-ratio profile with verdict fields.

    Verdicts stay ``None`` until :func:`boundedness_verdict` fills them in.
    ``radius_cap`` records a truncation-imposed cap when the requested grid
    had to stop early; ``witness`` holds the :func:`subharmonic_witness_check`
    of the routes that compute one.
    """

    radii: np.ndarray
    ratio: np.ndarray
    source: str = ""
    upper_bound_ok: bool | None = None
    boundary_limit_positive: bool | None = None
    radius_cap: float | None = None
    witness: WitnessReport | None = None

    def __post_init__(self):
        r = np.array(self.radii, dtype=float)
        q = np.array(self.ratio, dtype=float)
        if r.ndim != 1 or r.shape != q.shape:
            raise ConfigurationError("radii and ratio must be 1-d arrays of equal length")
        if not np.isfinite(q).all():
            raise NonFiniteError(f"ratio {q[~np.isfinite(q)][0]} at radius {r[~np.isfinite(q)][0]} is not finite")
        if (q <= 0.0).any():
            raise DomainError("ratio samples must be finite and positive (gram and kernel positivity)")
        r.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "ratio", q)

    @property
    def phi(self) -> np.ndarray:
        """The witness candidate ``phi = log ratio``."""
        return np.log(self.ratio)


def _checked_radii(radii, cap: float) -> np.ndarray:
    """Radii in ``[0, cap]``, strictly increasing, rejected before any series pass or frame solve."""
    r = np.asarray(radii, dtype=float)
    if not np.all((r >= 0.0) & (r <= cap)):  # NaN fails too
        raise DomainError(f"radii must lie in [0, {cap}] for this source")
    if np.any(np.diff(r) <= 0):
        raise ConfigurationError("radii must be strictly increasing")
    return r


def det_ratio_profile(B: BlockOperator, kernel: DiagonalKernel, n: int, radii) -> SimilarityDiagnostic:
    """Sample ``det h / K^n`` for a block operator on a radial grid (verdicts unset).

    The grams come from one ``frame_solver`` call and their determinants from one ``hermitian_det``
    call, the model metrics from one :func:`rkhs.series_pass` over the radii; frame solves stop at
    ``FRAME_RADIUS_CAP``.
    """
    r = _checked_radii(radii, FRAME_RADIUS_CAP)
    if n < 1:
        raise DomainError("model multiplicity must be >= 1")
    models = _model_powers(series_pass([kernel], [(x, 0) for x in r.tolist()])[0](kernel, r), n, r)
    return SimilarityDiagnostic(r, hermitian_det(frame_solver(B, r)) / models, source="frame",
                                radius_cap=FRAME_RADIUS_CAP)


def _model_powers(metrics: np.ndarray, n: int, radii: np.ndarray) -> np.ndarray:
    """``metrics ** n`` by Python float ``pow`` (numpy's ``** 2`` is ``np.square``), or NonFiniteError at a radius."""
    models = []
    for v, x in zip(metrics.tolist(), radii.tolist()):
        try:
            models.append(v ** n)
        except OverflowError:
            models.append(math.inf)
        if not 0.0 < models[-1] < math.inf:
            raise NonFiniteError(f"model power K^n = {models[-1]} out of float range at radius {x}, multiplicity {n}")
    return np.array(models)


#: Floor that the last four boundary samples must clear for a positive boundary limit.
LIMIT_FLOOR = 1e-6


def boundedness_verdict(D: SimilarityDiagnostic, bound: float = 1e6) -> SimilarityDiagnostic:
    """Fill in the boundedness and boundary-limit verdicts.

    Requires the canonical dyadic boundary grid ``r_k = 1 - 2^-k``,
    ``k = 3..12`` (a prefix of it is accepted for capped frame sources).
    ``upper_bound_ok`` holds when every sample stays below ``bound``;
    ``boundary_limit_positive`` when the last four samples sit above
    :data:`LIMIT_FLOOR` and have stabilized (pairwise relative change below 5%).
    The true boundary limit is not finitely decidable; this is a diagnostic
    along the radial approach, not a proof.
    """
    k = len(D.radii)
    if k < 1 or D.radii.tolist() != boundary_radii(3, 12)[:k].tolist():
        raise ConfigurationError("profile must be sampled on the dyadic boundary grid 1 - 2^-k, k = 3..12")
    upper = bool(np.max(D.ratio) < bound)
    if k >= 4:
        last = D.ratio[-4:]
        stable = bool(np.max(last) / np.min(last) - 1.0 < 0.05)
        limit_pos = bool(np.all(last > LIMIT_FLOOR) and stable)
    else:
        limit_pos = None
    return replace(D, upper_bound_ok=upper, boundary_limit_positive=limit_pos)


@dataclass(frozen=True)
class WitnessReport:
    """Residuals of the trace-curvature identity against the FD Laplacian, on its diagnostic's radii.

    ``residuals[i] = |(model - operator) trace curvature - (1/4) Δ phi|``;
    nodes where the Laplacian stencil is unavailable hold NaN.
    ``subharmonic_ok`` samples ``Δ phi >= -tolerance`` where computable, and
    ``phi_sup`` reports ``sup |phi|`` over the grid (boundedness of the
    witness).
    """

    laplacian: np.ndarray
    trace_difference: np.ndarray
    residuals: np.ndarray
    max_residual: float
    tolerance: float
    passed: bool
    phi_sup: float
    subharmonic_ok: bool


#: Central-difference step of the witness Laplacian, before it shrinks near 0 and 1.
WITNESS_STEP = 1e-3


def witness_step(r: float) -> float | None:
    """Witness stencil step ``h = min(WITNESS_STEP, (1 - r)/10, r/3)``; None where ``r ± h`` leaves (0, 1)."""
    h = min(WITNESS_STEP, (1.0 - r) / 10.0, r / 3.0 if r > 0 else WITNESS_STEP)
    return None if h <= 0 or r - h <= 0.0 or r + h >= 1.0 else h


def subharmonic_witness_check(
    D: SimilarityDiagnostic, trace_difference: np.ndarray, ratio_fn: Callable[[np.ndarray], np.ndarray]
) -> SimilarityDiagnostic:
    """``D`` with its witness: check ``trace K_model - trace K_T = (1/4) Δ phi`` with ``phi = log ratio``.

    The left side is ``trace_difference``, sampled on ``D.radii``; the right
    side is a central-difference radial Laplacian ``(phi'' + phi'/r)/4``
    from fresh evaluations of ``ratio_fn`` at ``r ± h``, with ``h`` from
    :func:`witness_step`: ``ratio_fn`` takes an array of radii, and is called
    once, over the stacked rows ``r + h, r, r - h`` of every radius with a
    stencil.  Nodes where the stencil leaves ``(0, 1)`` (``r = 0``) hold NaN.

    PASS when the worst residual stays below ``max(1e-4, 50 * h^2)`` for the
    largest step actually used.
    """
    radii = D.radii
    lap = np.full(len(radii), np.nan)
    steps = np.array([witness_step(r) for r in radii.tolist()], dtype=float)  # None reads as NaN
    stencil = ~np.isnan(steps)
    max_step = 0.0
    if np.any(stencil):
        r, h = radii[stencil], steps[stencil]
        x = np.concatenate((r + h, r, r - h))
        # math.log, one point at a time: np.log of an array rounds otherwise
        fp, f0, fm = np.array([math.log(v) for v in np.broadcast_to(ratio_fn(x), x.shape).tolist()]).reshape(3, -1)
        lap[stencil] = radial_laplacian(fp, f0, fm, h, r)
        max_step = float(np.max(h))
    usable = np.isfinite(lap)
    if not np.any(usable):
        raise ConfigurationError("no interior node admits a Laplacian stencil")
    residuals = np.where(usable, np.abs(trace_difference - lap / 4.0), np.nan)
    max_residual = float(np.nanmax(residuals))
    tolerance = max(1e-4, 50.0 * max_step ** 2)
    witness = WitnessReport(
        laplacian=lap,
        trace_difference=trace_difference,
        residuals=residuals,
        max_residual=max_residual,
        tolerance=tolerance,
        passed=max_residual < tolerance,
        phi_sup=float(np.max(np.abs(D.phi))),
        subharmonic_ok=bool(np.all(lap[usable] >= -tolerance)),
    )
    return replace(D, witness=witness)


def kernel_source_diagnostic(kernels, kernel: DiagonalKernel, n: int, radii) -> SimilarityDiagnostic:
    """Profile ``det h / K^n`` and its witness for the direct sum of the diagonal kernels ``kernels``
    against the rank-``n`` model on ``kernel`` (boundedness verdicts unset).

    The determinant of the block-diagonal gram is the product of the metrics.  One
    :func:`rkhs.series_pass` sums every kernel at the grid radii at orders 0 (profile) and 2 (witness
    curvatures) and at the witness stencil points ``r ± h`` at order 0; radii reach ``1 - 2^-12``.
    """
    r = _checked_radii(radii, ANALYTIC_RADIUS_CAP)
    if n < 1:
        raise DomainError("model multiplicity must be >= 1")
    stencil = [(p, 0) for x in r.tolist() if (h := witness_step(x)) is not None for p in (x + h, x - h)]
    metric, curvature = series_pass([*kernels, kernel], [*((x, 0) for x in r), *((x, 2) for x in r), *stencil])
    # an overflowing det h gives an infinite ratio, which SimilarityDiagnostic reports: numpy need not warn
    ratio = np.errstate(over="ignore")(lambda xs: math.prod([metric(k, xs) for k in kernels], start=np.ones(len(xs)))
                                       / _model_powers(metric(kernel, xs), n, xs))
    D = SimilarityDiagnostic(r, ratio(r), source="analytic")
    return subharmonic_witness_check(D, n * curvature(kernel, r) - sum(curvature(k, r) for k in kernels), ratio)


# ---------------------------------------------------------------------------
# the commutator coupling example

def _x_diagonal(x_diag) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x_diag, dtype=complex))
    if x.ndim != 1:
        raise ConfigurationError("X must be described by its diagonal")
    if not np.all(np.isfinite(x)):
        raise DomainError("X diagonal must be bounded (finite entries)")
    return x


def _commutator_ratio_poly(x_diag) -> np.ndarray:
    """Coefficients in ``t = r^2`` of ``rho = det h_T (1 - t)^2 = 1 + s P - s^2 |Q|^2``, ``s = 1 - t``.

    With the unweighted shift's section ``t(w) = (1, w, w^2, ...)`` and a
    diagonal ``X``: ``|t|^2 = 1/s``, ``|X t|^2 = P(t)`` and ``<t, X t> = Q(t)``,
    so ``det h_T = 1/s^2 + P/s - |Q|^2``.
    """
    x = _x_diagonal(x_diag)
    P = np.abs(x) ** 2
    Q2 = npoly.polymul(np.conj(x), x).real  # |Q|^2 on the real slice
    return npoly.polysub(npoly.polyadd(1.0, npoly.polymul((1.0, -1.0), P)), npoly.polymul((1.0, -2.0, 1.0), Q2))


def commutator_closed_forms(x_diag) -> tuple[Callable, ...]:
    """``(ratio, det, trace curvature)`` of the commutator example with diagonal X, as functions of ``r``:
    a float for a scalar ``r``, an array for an array, each entry the bytes of the scalar call.

    All three come from the ratio polynomial ``rho``: ``det h_T = rho / (1 - t)^2``, and the trace curvature
    ``-d d̄ log det h_T`` is the curvature of ``rho`` (exact derivatives) minus ``2/(1 - t)^2``.
    """
    rho = _commutator_ratio_poly(x_diag)
    derivatives = (rho, npoly.polyder(rho), npoly.polyder(rho, 2))
    gap2 = lambda r: (1.0 - r * r) * (1.0 - r * r)  # ``s * s``: a scalar and an array square alike
    ratio = lambda r: _float(npoly.polyval(r * r, rho))
    det = lambda r: _float(ratio(r) / gap2(r))
    curvature = lambda r: _float(_curvature(r * r, [npoly.polyval(r * r, c) for c in derivatives]) - 2.0 / gap2(r))
    return ratio, det, curvature


@dataclass(frozen=True)
class _Superdiagonal(_EntryBlock):
    """The block with entries ``(i, i + 1, values[i])``."""

    values: np.ndarray

    def entries(self, N: int):
        k = np.arange(len(self.values))
        return k, k + 1, self.values


@dataclass(frozen=True)
class CommutatorReport:
    """Frame-vs-closed-form comparison for the commutator coupling."""

    profile: SimilarityDiagnostic
    closed_form_check: bool
    pinch_ok: bool
    frame_dets: np.ndarray
    max_rel_err: float
    x_norm: float


#: The unweighted shift, both diagonal blocks of the commutator example.
_HARDY = ShiftBlock(hardy())


def commutator_example(x_diag, N: int = 160, radii=None) -> CommutatorReport:
    """Couple two unweighted shifts by ``S = X M* - M* X`` and compare paths.

    The assembled operator's determinant is computed from the frame solver
    and from the closed form ``|t|^4 + |t|^2 |Xt|^2 - |<t, Xt>|^2``; they
    must agree to 1e-8 relative.  The det ratio against the squared kernel
    is pinched in ``[1, 1 + |X|^2]`` by Cauchy-Schwarz.  The profile carries
    its witness against the rank-2 Hardy model ``-2/(1 - r^2)^2`` (no series
    summed), with the ratio and curvature of :func:`commutator_closed_forms`.
    """
    if radii is None:
        radii = np.arange(0.1, 0.95, 0.1)
    x = _x_diagonal(x_diag)
    if len(x) > N:
        raise ConfigurationError("X diagonal longer than the truncation")
    x_norm = float(np.max(np.abs(x))) if len(x) else 0.0
    xd = np.append(x, 0.0)[:N]
    S = _Superdiagonal(xd[:-1] - xd[1:])  # X M - M X with X = diag(x, 0, ...), M the unweighted shift
    B = BlockOperator(((_HARDY, S), (None, _HARDY)), order=N)
    radii = _checked_radii(radii, FRAME_RADIUS_CAP)  # before any frame solve
    frame_dets = hermitian_det(frame_solver(B, radii))
    ratio_fn, closed_det, trace_curvature = commutator_closed_forms(x)
    closed_dets = closed_det(radii)
    rel = np.abs(frame_dets - closed_dets) / np.abs(closed_dets)
    ratio = frame_dets * (1.0 - radii ** 2) ** 2
    trace_difference = -2.0 / ((1.0 - radii * radii) * (1.0 - radii * radii)) - trace_curvature(radii)
    profile = SimilarityDiagnostic(radii, ratio, source="commutator-frame")
    pinch = bool(np.all(ratio >= 1.0 - 1e-10) and np.all(ratio <= 1.0 + x_norm ** 2 + 1e-10))
    return CommutatorReport(
        profile=subharmonic_witness_check(profile, trace_difference, ratio_fn),
        closed_form_check=bool(np.max(rel) <= 1e-8),
        pinch_ok=pinch,
        frame_dets=frame_dets,
        max_rel_err=float(np.max(rel)),
        x_norm=x_norm,
    )


# ---------------------------------------------------------------------------
# serialization

def write_similarity_csv(D: SimilarityDiagnostic, fh) -> None:
    """Write the profile as CSV to the text stream ``fh``: columns
    ``r, ratio, phi, laplacian_phi, trace_curv_diff, residual`` (NaN where
    ``D`` carries no witness); 17 significant digits."""
    w = D.witness
    lap, diff, res = (w.laplacian, w.trace_difference, w.residuals) if w else [np.full(len(D.radii), np.nan)] * 3
    fh.write("r,ratio,phi,laplacian_phi,trace_curv_diff,residual\n")
    rows = zip(*(a.tolist() for a in (D.radii, D.ratio, D.phi, lap, diff, res)))
    fh.writelines("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in rows)


def diagnostic_verdicts(D: SimilarityDiagnostic) -> dict:
    """JSON-ready verdict block for a similarity diagnostic."""
    block = {
        "upper_bound_ok": D.upper_bound_ok,
        "boundary_limit_positive": D.boundary_limit_positive,
        "witness_residual": None,
        "max_ratio": float(np.max(D.ratio)),
        "min_ratio": float(np.min(D.ratio)),
        "radius_cap": D.radius_cap,
        "source": D.source,
    }
    if (w := D.witness) is not None:
        block.update(
            witness_residual=w.max_residual,
            witness_tolerance=w.tolerance,
            witness_passed=w.passed,
            phi_sup=w.phi_sup,
            subharmonic_ok=w.subharmonic_ok,
        )
    return block
