import io
import json
from dataclasses import replace
from unittest import mock

import mpmath
import numpy as np
import pytest

from cdlab import cli, shifts, similarity
from cdlab.blockops import BlockOperator, DiagonalBlock, ShiftBlock, frame_solver
from cdlab.errors import ConfigurationError, DomainError
from cdlab.matrix_core import hermitian_det
from cdlab.rkhs import boundary_radii, curvature_series, metric_eval, szego_power_coeffs
from cdlab.shifts import hardy, szego
from cdlab.similarity import (
    SimilarityDiagnostic,
    boundedness_verdict,
    commutator_closed_forms,
    commutator_example,
    det_ratio_profile,
    diagnostic_verdicts,
    kernel_source_diagnostic,
    subharmonic_witness_check,
    write_similarity_csv,
)
from oracles import pointwise_witness


K1 = szego_power_coeffs(1)
K2 = szego_power_coeffs(2)


class TestDetRatioProfile:
    def test_model_against_itself(self):
        D = kernel_source_diagnostic([K1], K1, 1, boundary_radii())
        assert np.allclose(D.ratio, 1.0, atol=1e-12)

    def test_direct_sum_against_multiplicity_two(self):
        D = kernel_source_diagnostic([K1, K1], K1, 2, boundary_radii())
        assert np.allclose(D.ratio, 1.0, atol=1e-12)

    def test_unweighted_against_power_two(self):
        r = boundary_radii()
        D = kernel_source_diagnostic([K1], K2, 1, r)
        assert D.ratio == pytest.approx(1 - r ** 2, rel=1e-10)

    @pytest.mark.parametrize("radii", [[0.5, 0.5], [0.6, 0.3]])
    def test_unsorted_radii_rejected(self, radii):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy()))), order=64)
        with pytest.raises(ConfigurationError, match="radii must be strictly increasing"):
            det_ratio_profile(B, K1, 2, radii)
        with pytest.raises(ConfigurationError, match="radii must be strictly increasing"):
            kernel_source_diagnostic([K1], K1, 1, radii)

    def test_frame_source_cap(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy()))), order=64)
        with pytest.raises(DomainError):
            det_ratio_profile(B, K1, 2, np.array([0.5, 0.97]))

    def test_positive_samples_enforced(self):
        with pytest.raises(DomainError):
            SimilarityDiagnostic(np.array([0.1, 0.2]), np.array([1.0, -1.0]))


class TestBoundednessVerdict:
    def test_flat_profile(self):
        D = boundedness_verdict(kernel_source_diagnostic([K1], K1, 1, boundary_radii()))
        assert D.upper_bound_ok is True
        assert D.boundary_limit_positive is True

    def test_vanishing_boundary_limit(self):
        D = boundedness_verdict(kernel_source_diagnostic([K1], K2, 1, boundary_radii()))
        assert D.upper_bound_ok is True
        assert D.boundary_limit_positive is False

    def test_requires_canonical_grid(self):
        D = kernel_source_diagnostic([K1], K1, 1, np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ConfigurationError):
            boundedness_verdict(D)

    def test_grid_is_compared_exactly(self):
        # a prefix of the grid passes; a radius one ulp off does not (the grid was once matched within 1e-12)
        D = kernel_source_diagnostic([K1], K1, 1, boundary_radii())
        assert boundedness_verdict(replace(D, radii=D.radii[:3], ratio=D.ratio[:3])).boundary_limit_positive is None
        moved = D.radii.copy()
        moved[4] = np.nextafter(moved[4], 0.0)
        with pytest.raises(ConfigurationError):
            boundedness_verdict(replace(D, radii=moved))


class TestWitnessCheck:
    def test_identical_sides_zero_residual(self):
        D = kernel_source_diagnostic([K1], K1, 1, boundary_radii())
        f = np.array([curvature_series(K1, r) for r in D.radii])
        rep = subharmonic_witness_check(D, f - f, lambda r: 1.0).witness
        assert rep.max_residual < 1e-10
        assert rep.passed and rep.subharmonic_ok
        assert rep.phi_sup == 0.0

    def test_power_direct_sum_zero_residual(self):
        rep = kernel_source_diagnostic([K1, K1], K1, 2, boundary_radii()).witness
        assert rep.max_residual < 1e-10

    def test_curvature_gap_on_coarse_grid(self):
        rep = kernel_source_diagnostic([K1], K2, 1, np.arange(0.0, 0.6, 0.05)).witness
        # phi = log(1 - r^2): quarter-Laplacian reproduces the curvature gap; no stencil fits at r = 0
        assert np.isnan(rep.residuals[0]) and np.all(np.isfinite(rep.residuals[1:]))
        assert rep.max_residual < rep.tolerance

    def test_residual_reported_from_the_witness_alone(self):
        D = kernel_source_diagnostic([K1], K2, 1, boundary_radii())
        assert diagnostic_verdicts(replace(D, witness=None))["witness_residual"] is None
        assert diagnostic_verdicts(D)["witness_residual"] == D.witness.max_residual


class TestCommutatorExample:
    def test_zero_coupling(self):
        rep = commutator_example([0.0], N=128)
        assert rep.closed_form_check
        assert np.allclose(rep.profile.ratio, 1.0, atol=1e-10)

    def test_scalar_commutes(self):
        rep = commutator_example(np.full(128, 0.4), N=128)
        assert np.allclose(rep.profile.ratio, 1.0, atol=1e-10)
        assert rep.x_norm == pytest.approx(0.4)

    def test_rank_one_coupling_closed_form(self):
        rep = commutator_example([1.0], N=160)
        r = rep.profile.radii
        expected = 1 + (1 - r ** 2) - (1 - r ** 2) ** 2
        assert rep.closed_form_check
        assert rep.profile.ratio == pytest.approx(expected, rel=1e-8)
        assert np.all(rep.profile.ratio >= 1 - 1e-12)
        assert np.all(rep.profile.ratio <= 1.25 + 1e-12)

    def test_cauchy_schwarz_pinch_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-0.8, 0.8, size=4)
            rep = commutator_example(x, N=160)
            assert rep.pinch_ok
            assert rep.closed_form_check

    def test_superadditivity_echo(self):
        # det h >= product of the diagonal metrics once X hits the section seed
        rep = commutator_example([0.5, 0.25], N=160)
        r = rep.profile.radii
        diag_product = (1 / (1 - r ** 2)) ** 2
        assert np.all(rep.frame_dets >= diag_product - 1e-10)

    def test_witness_residual(self):
        w = commutator_example([0.5], N=160).profile.witness
        assert w.max_residual < 1e-4
        assert w.phi_sup <= np.log(1.25) + 1e-12

    def test_one_ratio_polynomial_per_request(self):
        # the closed-form check, the witness's ratio and its trace curvature share one polynomial,
        # and both diagonal blocks are one Hardy shift built at import
        request = cli.parse_request(json.dumps({"command": "ex-commutator", "x_diag": [0.5, 0.25]}))
        poly = mock.patch.object(similarity, "_commutator_ratio_poly", wraps=similarity._commutator_ratio_poly)
        built = [mock.patch.object(m, "hardy", wraps=shifts.hardy) for m in (shifts, similarity)]
        with poly as polys, built[0] as in_shifts, built[1] as in_similarity:
            report, _ = cli.run(request)
        assert report["closed_form_check"] is True and report["witness_passed"] is True
        assert polys.call_count == 1
        assert in_shifts.call_count == in_similarity.call_count == 0

    def test_frame_gram_det_matches_closed_form_directly(self):
        # same quantity through the generic frame path
        x = [0.3, 0.1]
        N = 160
        from cdlab.blockops import MatrixBlock
        from cdlab.shifts import materialize

        M = materialize(hardy(), N).matrix
        X = np.zeros((N, N), dtype=complex)
        X[0, 0], X[1, 1] = x
        B = BlockOperator(((ShiftBlock(hardy()), MatrixBlock(X @ M - M @ X)), (None, ShiftBlock(hardy()))), order=N)
        det_closed = commutator_closed_forms(x)[1]
        for r in (0.2, 0.6):
            assert hermitian_det(frame_solver(B, r)) == pytest.approx(det_closed(r), rel=1e-10)


def test_commutator_closed_form_against_mpmath():
    # det h_T from the gram entries |t|^2 = 1/(1-t), |X t|^2 and <t, X t> at 50 digits; the trace curvature
    # -(t (log det)'' + (log det)') by mpmath's numerical derivatives, independent of the ratio polynomial
    x = [0.70112, 0.424605, 0.31146, 0.719158]
    ratio, det, trace = commutator_closed_forms(x)
    with mpmath.workdps(50):
        def det_mp(t):
            h = 1 / (1 - t)
            P = sum(mpmath.mpf(v) ** 2 * t ** k for k, v in enumerate(x))
            Q = sum(mpmath.mpf(v) * t ** k for k, v in enumerate(x))
            return h * h + h * P - Q * Q

        log_det = lambda t: mpmath.log(det_mp(t))
        for r in (0.1, 0.242424, 0.5, 0.9, 0.94):
            t = mpmath.mpf(r) ** 2
            exact = {ratio: det_mp(t) * (1 - t) ** 2, det: det_mp(t),
                     trace: -(t * mpmath.diff(log_det, t, 2) + mpmath.diff(log_det, t, 1))}
            for fn, value in exact.items():
                assert abs(fn(r) - value) <= 1e-14 * abs(value), (fn.__qualname__, r)


@pytest.mark.parametrize("x", [[0.5], [0.70112, 0.424605, 0.31146, 0.719158], [-0.9, 0.3, 0.0]])
def test_closed_forms_on_an_array_are_the_scalar_bytes(x):
    # one Horner pass over the array: each entry must be the float of the scalar call, the radius cap included
    radii = np.concatenate([[0.0], np.random.default_rng(len(x)).uniform(0.0, 0.95, 40), [0.95]])
    for fn in commutator_closed_forms(x):
        got = fn(radii)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == np.array([fn(float(r)) for r in radii]).tobytes()
        assert all(type(fn(r)) is float for r in (0.5, radii[3]))


@pytest.mark.parametrize("kernels, model, n, radii", [
    ([K1], K2, 1, np.arange(0.0, 0.6, 0.05)),
    ([K1, K2], K1, 2, boundary_radii()),
    ([szego_power_coeffs(3)], K2, 1, np.array([0.1, 0.45, 0.8, 0.99])),
])
def test_array_witness_is_the_pointwise_witness_on_a_kernel_source(kernels, model, n, radii):
    # the witness evaluates ratio_fn once per stencil row over every radius; per point, from metric_eval
    def ratio(x):
        det_h = 1.0
        for k in kernels:
            det_h *= metric_eval(k, x)
        return det_h / metric_eval(model, x) ** n

    w = kernel_source_diagnostic(kernels, model, n, radii).witness
    lap, step = pointwise_witness(radii, ratio)
    assert w.laplacian.tobytes() == lap.tobytes()
    assert w.tolerance == max(1e-4, 50.0 * step ** 2)


def test_array_witness_is_the_pointwise_witness_on_the_commutator():
    ratio_fn = commutator_closed_forms([0.3, 0.1])[0]
    w = commutator_example([0.3, 0.1]).profile.witness
    lap, step = pointwise_witness(np.arange(0.1, 0.95, 0.1), ratio_fn)
    assert w.laplacian.tobytes() == lap.tobytes()
    assert w.tolerance == max(1e-4, 50.0 * step ** 2)


class TestDirectSumDet:
    def test_consistent_with_frame_solver(self):
        # an uncoupled pair's frame gram is diagonal: its determinant is the product of the two metrics
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(szego(2)))), order=160)
        r = 0.5
        h = frame_solver(B, r)
        assert hermitian_det(h) == pytest.approx((h[0, 0] * h[1, 1]).real, rel=1e-12)


class TestSerialization:
    def test_csv_columns(self):
        D = kernel_source_diagnostic([K1], K1, 1, boundary_radii())
        buf = io.StringIO()
        write_similarity_csv(D, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "r,ratio,phi,laplacian_phi,trace_curv_diff,residual"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert float(first[0]) == 0.875
        assert float(first[1]) == pytest.approx(1.0)

    def test_verdict_block(self):
        D = boundedness_verdict(kernel_source_diagnostic([K1], K1, 1, boundary_radii()))
        block = diagnostic_verdicts(D)
        assert block["upper_bound_ok"] is True
        assert block["boundary_limit_positive"] is True
        assert block["max_ratio"] == pytest.approx(1.0)


class TestCommutatorBoundednessOnCanonicalGrid:
    def test_closed_form_source_reaches_the_boundary_grid(self):
        # the closed-form ratio is analytic, so the canonical dyadic grid applies
        ratio_fn = commutator_closed_forms([0.5])[0]
        grid = boundary_radii()
        D = SimilarityDiagnostic(grid, np.array([ratio_fn(r) for r in grid]), source="analytic")
        D = boundedness_verdict(D)
        assert D.upper_bound_ok is True
        assert D.boundary_limit_positive is True  # ratio -> 1 at the boundary
        assert np.all(D.ratio <= 1 + 0.25 + 1e-12)


class TestFrameGramAtRadiusCap:
    def test_positive_definite_at_cap(self):
        B = BlockOperator(
            ((ShiftBlock(hardy()), DiagonalBlock((0.4,))), (None, ShiftBlock(hardy()))),
            order=320,
        )
        h = frame_solver(B, 0.95)
        eigs = np.linalg.eigvalsh((h + h.conj().T) / 2)
        assert eigs[0] > 0
