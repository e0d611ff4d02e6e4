import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from cdlab import blockops, shifts
from cdlab.blockops import (
    BlockOperator,
    DiagonalBlock,
    MatrixBlock,
    ShiftBlock,
    ZeroBlock,
    assemble,
    blockwise_contraction_scan,
    cascade_reducibility,
    contraction_check,
    ex48_closed_form,
    frame_solver,
    rank_one_defect_check,
    section_vector,
    unit_norm_reducibility,
)
from cdlab.errors import (
    ConfigurationError,
    DomainError,
    SingularityError,
    TruncationError,
)
from cdlab.rules import RationalRule
from cdlab.shifts import (
    TruncatedOperator,
    WeightSequence,
    defect_report,
    hardy,
    materialize,
    szego,
)
from oracles import dense_operator, ex48_operator, ex48_schur_condition, with_prefix


def counterexample_block(N=32) -> BlockOperator:
    """Two-hypercontractive coupling whose lower corner is not one itself."""
    top = WeightSequence(tail=RationalRule((1, 1), (4, 1)))  # sqrt((i+1)/(i+4))
    bottom = with_prefix(szego(2), [math.sqrt(13 / 25)])
    return BlockOperator(
        ((ShiftBlock(top), DiagonalBlock((math.sqrt(1 / 5),))), (None, ShiftBlock(bottom))),
        order=N,
    )


class TestAssembly:
    def test_degenerate_grid_matches_materialize(self):
        B = BlockOperator(((ShiftBlock(hardy()),),), order=4)
        assert np.allclose(assemble(B).matrix, materialize(hardy(), 4).matrix)

    def test_direct_sum(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy()))), order=4)
        T = assemble(B)
        assert T.order == 8
        assert np.allclose(T.matrix[:4, :4], T.matrix[4:, 4:])
        assert np.count_nonzero(T.matrix[:4, 4:]) == 0

    def test_none_is_a_zero_block(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy()))), order=4)
        assert B.blocks[0][1] == B.blocks[1][0] == ZeroBlock()
        Z = BlockOperator(((ShiftBlock(hardy()), ZeroBlock()), (ZeroBlock(), ShiftBlock(hardy()))), order=4)
        assert np.array_equal(assemble(B).matrix, assemble(Z).matrix)

    def test_counterexample_corner(self):
        T = assemble(counterexample_block(16))
        assert T.matrix[0, 16] == pytest.approx(math.sqrt(1 / 5))
        assert np.count_nonzero(T.matrix[16:, :16]) == 0

    def test_lower_block_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockOperator(((None, None), (ShiftBlock(hardy()), None)), order=4)

    def test_matrix_block_shape_checked(self):
        B = BlockOperator(((MatrixBlock(np.zeros((3, 3))),),), order=4)
        with pytest.raises(ConfigurationError):
            assemble(B)


class TestContraction:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_model_shifts_are_contractions(self, k):
        assert contraction_check(materialize(szego(k), 24)).is_psd

    def test_oversized_coupling_fails(self):
        B = BlockOperator(
            ((ShiftBlock(hardy()), MatrixBlock(2.0 * np.eye(8))), (None, ShiftBlock(hardy()))),
            order=8,
        )
        assert not contraction_check(assemble(B)).is_psd

    def test_counterexample_is_contraction(self):
        assert contraction_check(assemble(counterexample_block())).is_psd

    def test_scan_direct_sum_of_unweighted(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy()))), order=16)
        scan = blockwise_contraction_scan(B)
        assert np.all(scan.contractions)
        assert scan.unit_norm_flags[0, 0] and scan.unit_norm_flags[1, 1]
        assert scan.assembled.is_psd

    def test_scan_counterexample_blocks_contractive(self):
        scan = blockwise_contraction_scan(counterexample_block())
        assert np.all(scan.contractions)
        assert scan.assembled.is_psd

    def test_scan_reports_violating_row_sum(self):
        B = BlockOperator(
            ((ShiftBlock(hardy(), 0.9), ShiftBlock(hardy(), 0.9)), (None, ShiftBlock(hardy(), 0.3))),
            order=8,
        )
        scan = blockwise_contraction_scan(B)
        assert scan.row_sums[0] == pytest.approx(1.62)
        assert any("row 0" in v for v in scan.violations)

    def test_one_svd_per_matrix_block(self):
        # the block norm and the window norm share one SVD of the frozen block
        A = np.random.default_rng(3).standard_normal((64, 64)) / 32
        with mock.patch.object(np.linalg._linalg, "svd", wraps=np.linalg._linalg.svd) as svd:
            scan = blockwise_contraction_scan(BlockOperator(((MatrixBlock(A),),), order=64))
        assert svd.call_count == 1
        assert scan.norms[0, 0] == scan.window_norms[0, 0] == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    def test_lemma_blocks_of_contraction_are_contractions(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            C = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            C = 0.9 * C / np.linalg.norm(C, 2)
            C = np.triu(C)
            grid = tuple(
                tuple(MatrixBlock(C[i, j] * np.eye(6)) for j in range(3)) for i in range(3)
            )
            B = BlockOperator(grid, order=6)
            scan = blockwise_contraction_scan(B)
            if scan.assembled.is_psd:
                assert np.all(scan.contractions)
                # scalar blocks attain their norms jointly: the sum form holds
                assert np.all(scan.row_sums <= 1 + 1e-8)
                assert np.all(scan.col_sums <= 1 + 1e-8)


class TestEx48:
    def test_boundary_case_true(self):
        a = [0.6] + [0.5] * 31
        b = [0.5] * 32
        assert ex48_closed_form(a, b, [0.8])
        v = contraction_check(assemble(ex48_operator(a, b, [0.8], 32)), 1e-8)
        assert v.is_psd and abs(v.min_eigenvalue) < 1e-12

    def test_just_above_boundary_false(self):
        a = [0.6] + [0.5] * 31
        b = [0.5] * 32
        assert not ex48_closed_form(a, b, [0.81])
        assert not contraction_check(assemble(ex48_operator(a, b, [0.81], 32)), 1e-8).is_psd

    def test_empty_coupling(self):
        assert ex48_closed_form([0.5] * 8, [0.9] * 8, [])
        assert not ex48_closed_form([0.5] * 8, [1.1] + [0.9] * 7, [])

    def test_excluded_degenerate_weight(self):
        with pytest.raises(SingularityError):
            ex48_closed_form([1.0, 0.5], [0.5, 0.5], [0.1, 0.1])

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(99)
        N = 24
        for _ in range(120):
            k = int(rng.integers(1, 6))
            a = rng.uniform(0.05, 0.95, N - 1)
            b = rng.uniform(0.05, 0.95, N - 1)
            bounds = np.empty(k)
            bounds[0] = 1 - a[0] ** 2
            for i in range(1, k):
                bounds[i] = (1 - a[i] ** 2) * (1 - b[i - 1] ** 2)
            side = rng.uniform(0.05, 0.5, k)
            up = rng.random(k) < 0.5
            d = np.sqrt(bounds) * np.where(up, 1 + side, 1 - side)
            if np.any(np.abs(d ** 2 - bounds) < 1e-8):
                continue
            closed = ex48_closed_form(a, b, d)
            oracle = contraction_check(assemble(ex48_operator(a, b, d, N)), 1e-10).is_psd
            assert closed == oracle


class TestEx48Schur:
    def _blocks(self, a, b, d, N):
        T1 = materialize(WeightSequence(prefix=tuple(a[: N - 1])), N)
        T2 = materialize(WeightSequence(prefix=tuple(b[: N - 1])), N)
        T12 = TruncatedOperator(N, DiagonalBlock(tuple(d)).entries(N))
        return T1, T12, T2

    def test_direct_sum(self):
        T1 = materialize(szego(1), 16)
        T1 = dense_operator(0.5 * T1.matrix)
        T12 = dense_operator(np.zeros((16, 16)))
        T2 = materialize(szego(2), 16)
        assert ex48_schur_condition(T1, T12, T2).is_psd

    def test_matches_closed_form_cases(self):
        a = [0.6] + [0.5] * 23
        b = [0.5] * 24
        T1, T12, T2 = self._blocks(a, b, [0.79], 24)
        assert ex48_schur_condition(T1, T12, T2, 1e-8).is_psd
        T1, T12, T2 = self._blocks(a, b, [0.82], 24)
        assert not ex48_schur_condition(T1, T12, T2, 1e-8).is_psd


class TestFrameSolver:
    def test_sections_of_unweighted_shift(self):
        t = section_vector(hardy(), 0.5, 64)
        assert t[:4] == pytest.approx([1.0, 0.5, 0.25, 0.125])

    def test_section_tail_guard(self):
        with pytest.raises(TruncationError):
            section_vector(hardy(), 0.9, 16)

    def test_section_of_weights_tending_to_zero(self):
        w = WeightSequence(tail=RationalRule((1,), (1, 1)))  # w_i^2 = 1/(i+1): inf over the tail is 0
        with pytest.raises(TruncationError, match="section tail ratio"):
            section_vector(w, 0.1, 64)
        assert section_vector(w, 0.0, 8) == pytest.approx(np.eye(8)[0])

    def test_direct_sum_metric_diagonal(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy()))), order=128)
        h = frame_solver(B, 0.5)
        assert h[0, 0].real == pytest.approx(4 / 3, rel=1e-12)
        assert h[1, 1].real == pytest.approx(4 / 3, rel=1e-12)
        assert abs(h[0, 1]) < 1e-14

    def test_mixed_direct_sum(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(szego(2)))), order=160)
        h = frame_solver(B, 0.6)
        assert h[0, 0].real == pytest.approx(1 / (1 - 0.36), rel=1e-10)
        assert h[1, 1].real == pytest.approx(1 / (1 - 0.36) ** 2, rel=1e-10)

    def test_gram_positive_definite_with_coupling(self):
        B = BlockOperator(
            ((ShiftBlock(hardy()), DiagonalBlock((0.5, 0.25))), (None, ShiftBlock(bergman_w()))),
            order=160,
        )
        for r in (0.1, 0.5, 0.9):
            h = frame_solver(B, r)
            eigs = np.linalg.eigvalsh((h + h.conj().T) / 2)
            assert eigs[0] > 0

    def test_radius_cap(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy()))), order=64)
        with pytest.raises(DomainError):
            frame_solver(B, 0.97)


def bergman_w():
    return szego(2)


class TestUnitNormDetector:
    def test_direct_sum_with_unit_block(self):
        B = BlockOperator(((ShiftBlock(hardy()), None), (None, ShiftBlock(hardy(), 0.5))), order=16)
        v = unit_norm_reducibility(B)
        assert v.reducible is True
        assert v.detector == "unit-norm-block"
        assert "(0,0)" in v.witness

    def test_counterexample_undetermined(self):
        # no diagonal block attains norm 1 on a finite window
        v = unit_norm_reducibility(counterexample_block())
        assert v.reducible is None
        assert "no diagonal block" in v.witness

    def test_non_contraction_reported(self):
        E = np.zeros((16, 16))
        E[0, 0] = 0.3
        B = BlockOperator(
            ((ShiftBlock(hardy()), MatrixBlock(E)), (None, ShiftBlock(hardy(), 0.5))), order=16
        )
        v = unit_norm_reducibility(B)
        assert v.reducible is None
        assert "not a contraction" in v.witness


class TestCascadeDetector:
    def test_block_diagonal_reducible(self):
        B = BlockOperator(((ShiftBlock(szego(2)), None), (None, ShiftBlock(hardy(), 0.5))), order=24)
        v = cascade_reducibility(B, 2)
        assert v.reducible is True
        assert v.detector == "cascade"

    def test_coupled_instance_rejected(self):
        # no order-2 hypercontraction couples the model block to this corner
        E = np.zeros((24, 24))
        E[0, 0] = 0.1
        B = BlockOperator(((ShiftBlock(szego(2)), MatrixBlock(E)), (None, ShiftBlock(hardy(), 0.5))), order=24)
        v = cascade_reducibility(B, 2)
        assert v.reducible is None
        assert "hypercontractivity fails" in v.witness or "contradiction" in v.witness

    @staticmethod
    def _step_coefficient(n, m, g):
        # c_m = gamma_m sum_{j=1}^{min(n, m+1)} (-1)^{j+1} C(n, j) prod_{l=m+1-j}^{m-1} gamma_l^2, in floats
        total = 0.0
        for j in range(1, min(n, m + 1) + 1):
            total += (-1) ** (j + 1) * math.comb(n, j) * float(np.prod(g[m + 1 - j : m] ** 2))
        return g[m] * total

    def test_first_coefficient_value(self):
        g = szego(2).weights(4)
        assert self._step_coefficient(2, 0, g) == pytest.approx(math.sqrt(2))
        assert 1 / g[0] == pytest.approx(math.sqrt(2))

    def test_coefficients_stay_nonzero_along_stream(self):
        # the detector divides by no coefficient: it takes c_m = 1/gamma_m >= 1 from the weights it checks
        for n in (1, 2, 3):
            g = szego(n).weights(40)
            coeffs = [self._step_coefficient(n, m, g) for m in range(30)]
            assert min(abs(c) for c in coeffs) > 1e-3
            np.testing.assert_allclose(coeffs, 1 / g[:30], rtol=1e-12)

    def test_step_coefficient_is_one_over_gamma(self):
        # c_m = gamma_m sum_{j=1}^{min(n, m+1)} (-1)^{j+1} C(n, j) prod_{l=m+1-j}^{m-1} gamma_l^2 equals 1/gamma_m,
        # i.e. the sum equals 1/gamma_m^2 = (n+m)/(m+1), exactly, with gamma_l^2 = (l+1)/(n+l)
        for n in range(1, 9):
            g2 = [Fraction(l + 1, n + l) for l in range(300)]
            for m in range(300):
                total = Fraction(0)
                for j in range(1, min(n, m + 1) + 1):
                    prod = Fraction(1)
                    for l in range(m + 1 - j, m):
                        prod *= g2[l]
                    total += (-1) ** (j + 1) * math.comb(n, j) * prod
                assert total == 1 / g2[m], (n, m)

    def test_leak_recovers_the_coupling(self):
        # below tol the coupling corner leaks into column 1 of D_2 as 5e-11 / gamma_0; times gamma_0 it is the corner
        B = BlockOperator(
            ((ShiftBlock(szego(2)), DiagonalBlock((5e-11,))), (None, ShiftBlock(hardy(), 0.5))), order=32
        )
        v = cascade_reducibility(B, 2)
        assert v.reducible is True
        assert "max implied leak 5.0e-11" in v.witness, v.witness

    @pytest.mark.parametrize("coupling,reducible", [(0.0, True), (1e-6, None)], ids=["split", "contradiction"])
    def test_order_n_defect_formed_once(self, coupling, reducible):
        # a split reads its leak off the hypercontractivity report's last order: no second defect
        B = BlockOperator(
            ((ShiftBlock(szego(2)), DiagonalBlock((coupling,))), (None, ShiftBlock(hardy(), 0.5))), order=32
        )
        counter = mock.Mock(wraps=shifts.defect_blocks)
        with mock.patch.object(shifts, "defect_blocks", counter), mock.patch.object(blockops, "defect_blocks", counter):
            v = cascade_reducibility(B, 2)
        assert v.reducible is reducible
        assert counter.call_count == 1

    def test_wrong_top_block_rejected(self):
        B = BlockOperator(((ShiftBlock(hardy(), 0.5), None), (None, ShiftBlock(hardy(), 0.5))), order=24)
        with pytest.raises(ConfigurationError):
            cascade_reducibility(B, 2)


def single_block(block, N: int) -> BlockOperator:
    return BlockOperator(((block,),), order=N)


class TestRankOneDefect:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_shift_certifies(self, n):
        rep = rank_one_defect_check(single_block(ShiftBlock(szego(n)), 48), n)
        assert rep.verdict.reducible is True
        assert rep.top_singular_values[0] == pytest.approx(1.0, abs=1e-10)
        assert rep.top_singular_values[1] == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(rep.metric_samples, rep.expected_metric, rtol=1e-8)
        assert np.allclose(rep.curvature_samples, -n / (1 - rep.radii ** 2) ** 2)

    def test_unweighted_shift_at_higher_order(self):
        # order-2 defect of the unweighted shift is diag(1, -1, 0, ...): rank two
        rep = rank_one_defect_check(single_block(ShiftBlock(szego(1)), 32), 2)
        assert rep.verdict.reducible is None
        assert "rank" in rep.verdict.witness

    def test_scaled_shift_not_a_projection(self):
        T = materialize(szego(2), 32)
        rep = rank_one_defect_check(single_block(MatrixBlock(0.9 * T.matrix), 32), 2)
        assert rep.verdict.reducible is None

    def test_grid_other_than_one_by_one_rejected(self):
        B = BlockOperator(((ShiftBlock(szego(2)), None), (None, ShiftBlock(szego(2)))), order=32)
        with pytest.raises(ConfigurationError):
            rank_one_defect_check(B, 2)

    @pytest.mark.parametrize("scale", [1.0, -1.0, 1j])
    def test_shift_weights_are_read_once(self, scale):
        # the sections' superdiagonal is the assembled operator's entries, not a second weight evaluation
        B = single_block(ShiftBlock(szego(2), scale), 48)
        with mock.patch.object(shifts.WeightSequence, "weights", autospec=True,
                               side_effect=shifts.WeightSequence.weights) as weights:
            rep = rank_one_defect_check(B, 2)
        assert weights.call_count == 1
        assert rep.verdict.reducible is True
        assert np.allclose(rep.metric_samples, rep.expected_metric, rtol=1e-8)

    def test_zero_scale_shift_keeps_its_verdicts(self):
        # a zero scale assembles no entries: the defect is the identity, and past the rank test every section
        # overflows away from the seed vector
        B = single_block(ShiftBlock(szego(2), 0.0), 32)
        assert "rank exceeds one" in rank_one_defect_check(B, 2).verdict.witness
        with np.errstate(all="ignore"), mock.patch.object(blockops, "RANK_ONE_TOL", 2.0):
            rep = rank_one_defect_check(B, 2)
        assert rep.verdict.reducible is None and "orthogonal to the defect vector" in rep.verdict.witness


class TestHypercontractivityInheritance:
    def test_top_block_inherits_from_assembly(self):
        # order-n positivity of the assembled coupling passes to the leading block
        B = counterexample_block(32)
        assert defect_report(assemble(B), 2).passed
        top = materialize(WeightSequence(tail=RationalRule((1, 1), (4, 1))), 32)
        assert defect_report(top, 2).passed

    def test_random_admissible_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            scale = rng.uniform(0.3, 0.8)
            d = rng.uniform(0.0, 0.2)
            B = BlockOperator(
                ((ShiftBlock(szego(2), scale), DiagonalBlock((d,))), (None, ShiftBlock(szego(2), scale))),
                order=24,
            )
            T = assemble(B)
            if defect_report(T, 2).passed:
                top = dense_operator(scale * materialize(szego(2), 24).matrix)
                assert defect_report(top, 2).passed
