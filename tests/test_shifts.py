import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdlab.blockops import BlockOperator, ShiftBlock, assemble, contraction_check
from cdlab.errors import ConfigurationError, DomainError
from cdlab.rkhs import DiagonalKernel
from cdlab.rules import RationalRule, poly_mul
from cdlab.shifts import (
    WeightSequence,
    bergman,
    defect_operator,
    defect_report,
    hardy,
    hypercontractivity_report,
    materialize,
    shields_similarity,
    szego,
)
from oracles import defect_complement, defect_operator_recursive, shields_scan, with_prefix


def counterexample_shift() -> WeightSequence:
    # first Bergman-type weight bumped from sqrt(1/2) to sqrt(13/25)
    return with_prefix(szego(2), [math.sqrt(13 / 25)])


class TestWeightSequence:
    def test_szego_values(self):
        w = szego(3)
        assert w.weights(4) == pytest.approx([math.sqrt((i + 1) / (3 + i)) for i in range(4)])

    def test_prefix_overrides(self):
        w = counterexample_shift()
        assert w.weights(2)[0] == pytest.approx(math.sqrt(13 / 25))
        assert w.weights(2)[1] == pytest.approx(math.sqrt(2 / 3))

    def test_finite_coverage(self):
        w = WeightSequence(prefix=(0.5, 0.5))
        assert w.coverage == 2
        with pytest.raises(DomainError):
            w.weights(3)

    def test_sup_weight_uses_tail_limit(self):
        assert szego(1).sup_weight() == pytest.approx(1.0)
        assert szego(2).sup_weight() == pytest.approx(1.0)  # limit, not any finite weight
        assert WeightSequence(prefix=(0.3, 0.7)).sup_weight() == pytest.approx(0.7)

    # interior maximum at i = 20 (sqrt(401) = 20.02), interior minimum, double pole at 20.5
    NON_MONOTONE_TAILS = [RationalRule((1, 0, 1), (401, -40, 1)),
                          RationalRule((401, -40, 1), (1, 0, 1)),
                          RationalRule((1,), (1681, -164, 4))]

    @pytest.mark.parametrize("rule", NON_MONOTONE_TAILS)
    @pytest.mark.parametrize("start", [0, 7, 20, 21, 300])
    def test_tail_bounds_are_exact_extrema(self, rule, start):
        w = WeightSequence(prefix=(0.9, 1.7), tail=rule)
        values = list(w.weights(20_000)[start:]) + [math.sqrt(rule.limit())]
        assert w.tail_bounds(start) == (pytest.approx(min(values), rel=1e-15), pytest.approx(max(values), rel=1e-15))

    def test_tail_bounds_see_a_sign_change_the_probes_miss(self):
        # nonpositive at i = 21..30 only; construction now rejects it
        with pytest.raises(DomainError, match="nonpositive at index 21"):
            WeightSequence(tail=RationalRule((-60, 2), (-41, 2)))

    def test_interior_supremum_blocks_the_sufficient_contraction_test(self):
        w = WeightSequence(tail=self.NON_MONOTONE_TAILS[0])
        assert w.sup_weight() == pytest.approx(math.sqrt(401), rel=1e-15)
        B = BlockOperator(((ShiftBlock(w, 0.1), None), (None, ShiftBlock(hardy(), 0.5))), order=64)
        assert not contraction_check(assemble(B)).is_psd
        assert B.block_norms()[0, 0] == pytest.approx(0.1 * math.sqrt(401), rel=1e-15)  # the sup, not a sample


@pytest.mark.parametrize("cls", [WeightSequence, DiagonalKernel], ids=lambda c: c.__name__)
class TestSequenceValidation:
    """Both sequence types share one validator (``rules.RationalSequence``)."""

    def test_nonpositive_prefix(self, cls):
        for prefix in ((0.0,), (1.0, -2.0), (math.inf,)):
            with pytest.raises(DomainError):
                cls(prefix=prefix)
        with pytest.raises(DomainError):
            cls(prefix=(-1.0,), tail=RationalRule((1,)))

    def test_nonpositive_tail(self, cls):
        with pytest.raises(DomainError):
            cls(tail=RationalRule((-1,)))

    @pytest.mark.parametrize("offset", [0, 5, 21])
    def test_tail_sign_change_rejected_at_construction(self, cls, offset):
        # (2i - 60)/(2i - 41) is negative at i = 21..29, zero at 30, positive elsewhere
        with pytest.raises(DomainError, match="nonpositive at index 21"):
            cls(prefix=(1.0,) * offset, tail=RationalRule((-60, 2), (-41, 2)))
        assert cls(prefix=(1.0,) * 31, tail=RationalRule((-60, 2), (-41, 2))).tail(31) > 0

    def test_tail_pole_rejected_at_construction(self, cls):
        # 1/(i - 3)^2 is positive at every index but 3, where it is undefined
        with pytest.raises(DomainError, match="vanishes at index 3"):
            cls(tail=RationalRule((1,), (9, -6, 1)))

    def test_tail_with_negative_limit_rejected(self, cls):
        # 2^21 - i is positive at its only extremum candidate i = 0 and up to 2^21; the limit exposes it
        with pytest.raises(DomainError, match="tends to"):
            cls(tail=RationalRule((2 ** 21, -1)))


class TestMaterialize:
    def test_unweighted_three_by_three(self):
        T = materialize(szego(1), 3)
        assert np.array_equal(T.matrix.real, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))

    def test_bergman_superdiagonal(self):
        T = materialize(szego(2), 3)
        assert np.diag(T.matrix, 1).real == pytest.approx([math.sqrt(1 / 2), math.sqrt(2 / 3)])

    def test_counterexample_superdiagonal(self):
        T = materialize(counterexample_shift(), 4)
        assert np.diag(T.matrix, 1).real == pytest.approx(
            [math.sqrt(13 / 25), math.sqrt(2 / 3), math.sqrt(3 / 4)]
        )

    def test_order_too_small(self):
        with pytest.raises(ConfigurationError):
            materialize(szego(1), 1)


class TestDefectOperator:
    def test_order_one(self):
        T = materialize(szego(2), 8)
        D = defect_operator(T, 1)
        assert np.allclose(D, np.eye(8) - T.matrix.conj().T @ T.matrix)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_model_defect_is_seed_projection(self, n):
        T = materialize(szego(n), 32)
        D = defect_operator(T, n)
        E = np.zeros((32, 32))
        E[0, 0] = 1.0
        W = 32 - n
        assert np.max(np.abs(D[:W, :W] - E[:W, :W])) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complement_acts_as_identity_off_seed(self, n):
        # I - D_n sends e_i -> e_i for i >= 1 (diag(0,1,1,...))
        T = materialize(szego(n), 32)
        S = defect_complement(T, n)
        W = 32 - n
        expected = np.eye(32)
        expected[0, 0] = 0.0
        assert np.max(np.abs(S[:W, :W] - expected[:W, :W])) < 1e-13

    def test_recursion_matches_binomial_path(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(8, 20))
            w = WeightSequence(prefix=tuple(rng.uniform(0.2, 1.2, n - 1)))
            T = materialize(w, n)
            for k in range(1, 6):
                assert np.max(np.abs(defect_operator(T, k) - defect_operator_recursive(T, k))) < 1e-12

    def test_interior_window_stability(self):
        # entries with both indices < N - k agree between truncations N and N+8
        w = counterexample_shift()
        for k in (1, 2, 3):
            D_small = defect_operator(materialize(w, 24), k)
            D_large = defect_operator(materialize(w, 32), k)
            W = 24 - k
            assert np.max(np.abs(D_small[:W, :W] - D_large[:W, :W])) < 1e-14

    def test_invalid_order(self):
        with pytest.raises(DomainError):
            defect_operator(materialize(szego(1), 4), 0)


class TestHypercontractivityReport:
    def test_bergman_passes_order_two(self):
        rep = hypercontractivity_report(szego(2), 2, 32)
        assert rep.passed
        assert rep.verdicts == (True, True)

    def test_counterexample_fails_order_two(self):
        rep = hypercontractivity_report(counterexample_shift(), 2, 32)
        assert rep.verdicts[0] is True
        assert rep.verdicts[1] is False
        assert rep.first_failure() == 2
        assert rep.min_eigenvalues[1] == pytest.approx(-1 / 25, abs=1e-12)

    def test_order_one_iff_contractive_weights(self):
        ok = WeightSequence(prefix=(0.9, 0.3, 1.0) + (0.5,) * 30)
        bad = WeightSequence(prefix=(0.9, 1.1) + (0.5,) * 30)
        assert hypercontractivity_report(ok, 1, 16).passed
        assert not hypercontractivity_report(bad, 1, 16).passed

    def test_window_requirement(self):
        with pytest.raises(ConfigurationError):
            hypercontractivity_report(szego(2), 2, 8)

    def test_contraction_sandwich(self):
        # whenever order-n positivity holds, 0 <= I - D_n <= I on the window
        for n in (1, 2, 3, 4):
            T = materialize(szego(n), 32)
            rep = defect_report(T, n)
            assert rep.passed
            S = defect_complement(T, n)
            W = 32 - n
            eigs = np.linalg.eigvalsh((S[:W, :W] + S[:W, :W].conj().T) / 2)
            assert eigs[0] >= -1e-10
            assert eigs[-1] <= 1 + 1e-10


def agler_violations(w: WeightSequence, n: int, horizon: int) -> np.ndarray:
    """Indices ``j < horizon`` with ``w_j^2 > (1+j)/(n+j)``: an ``n``-hypercontractive shift has none, since its
    squared weights are the ratios ``v_{j+1}/v_j`` of its coefficient space's norm weights."""
    j = np.arange(horizon)
    return np.nonzero(w.weights(horizon) ** 2 > (1.0 + j) / (n + j) + 1e-10)[0]


class TestAglerBound:
    def test_model_space_weights_are_equality_case(self):
        # the order-n model shift meets w_j^2 = (1+j)/(n+j) with equality
        for n in (1, 2, 3):
            j = np.arange(100)
            assert szego(n).weights(100) ** 2 == pytest.approx((1.0 + j) / (n + j), rel=1e-14)
            assert len(agler_violations(szego(n), n, 100)) == 0

    def test_counterexample_flagged_at_zero(self):
        assert list(agler_violations(counterexample_shift(), 2, 100)) == [0]
        assert counterexample_shift().weights(1)[0] ** 2 == pytest.approx(13 / 25)

    def test_constant_weights_pass_order_one(self):
        assert np.all(hardy().weights(51) == 1.0)
        assert len(agler_violations(hardy(), 1, 50)) == 0

    def test_shift_translation_consistency(self):
        # space weights ||z^j||^2 = prod_{i<j} a_i^2 of the order-3 model shift
        # are the kernel's 1/C(j+2, j), and the shift passes the order-3 bound
        a = szego(3).weights(100)
        space = np.concatenate(([1.0], np.cumprod(a ** 2)))
        assert space == pytest.approx([1.0 / math.comb(j + 2, j) for j in range(101)], rel=1e-12)
        assert len(agler_violations(szego(3), 3, 100)) == 0


class TestShields:
    def test_identical_sequences(self):
        rep = shields_similarity(bergman(), bergman(), (64, 128, 256))
        assert rep.sup_ratio == pytest.approx(1.0)
        assert rep.inf_ratio == pytest.approx(1.0)
        assert rep.verdict == "similar-consistent"

    def test_unweighted_vs_bergman_diverges(self):
        rep = shields_similarity(hardy(), bergman(), (100, 10 ** 4, 10 ** 6))
        assert rep.verdict == "not-similar"
        # telescoping product: R(0, j) = sqrt(j + 2)
        assert np.prod(hardy().weights(99) / bergman().weights(99)) == pytest.approx(10.0, abs=1e-9)
        assert rep.sup_at_horizons[-1] == pytest.approx(math.sqrt(10 ** 6 + 1), rel=1e-12)

    def test_single_factor_perturbation_stays_consistent(self):
        a = with_prefix(bergman(), [0.5])
        rep = shields_similarity(a, bergman(), (128, 256, 512))
        assert rep.verdict == "similar-consistent"
        assert rep.sup_ratio == pytest.approx(1.0)
        assert rep.inf_ratio == pytest.approx(0.5 / math.sqrt(0.5))

    def test_reflexive_symmetry_in_log_space(self):
        a, b = szego(3), counterexample_shift()
        fwd = shields_similarity(a, b, (256, 512, 1024))
        rev = shields_similarity(b, a, (256, 512, 1024))
        for ls, li in zip(fwd.log_sup_at_horizons, rev.log_inf_at_horizons):
            assert ls + li == pytest.approx(0.0, abs=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_cutoff_and_euler_maclaurin_match_the_full_scan(self, data):
        # random prefixes and tails of degrees 0-2 (linear factors and irreducible quadratics), equal and
        # unequal degrees and identical tails, at horizons up to 2^20
        def poly():
            c = (data.draw(st.integers(1, 3)),)
            for _ in range(data.draw(st.integers(0, 2))):
                s, t = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 6))
                c = poly_mul(c, data.draw(st.sampled_from([(t, 1), (s * s + t, 2 * s, 1)])))
            return c

        def sequence(tail):
            prefix = data.draw(st.lists(st.floats(0.1, 3.0), max_size=4))
            return WeightSequence(prefix=tuple(prefix), tail=tail)

        sign = data.draw(st.sampled_from([1, -1]))  # a tail whose p and q are both negative is positive too
        a = sequence(RationalRule(*(tuple(sign * c for c in poly()) for _ in "pq")))
        b = sequence(a.tail if data.draw(st.booleans()) else RationalRule(poly(), poly()))
        hs = tuple(sorted(data.draw(st.lists(st.integers(2, 2 ** 20), min_size=3, max_size=3, unique=True))))
        rep = shields_similarity(a, b, hs)
        log_sups, log_infs = shields_scan(a, b, hs)
        assert rep.verdict == _verdict(log_sups, log_infs, 1e3)
        for got, want in zip(rep.log_sup_at_horizons + rep.log_inf_at_horizons, log_sups + log_infs):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("p_a, p_b", [((1, 1000), (1001, 999)), ((998, 1000, 999), (1000, 1001, 1000))],
                             ids=["sign-change-at-1000", "turning-point-at-2000"])
    def test_cutoff_passes_late_sign_changes_and_turning_points(self, p_a, p_b):
        # both root bounds are about 2, but the terms change sign at l = 1000 in the first pair and, all
        # negative, peak at l = 2000 in the second: the cutoff must come after both
        a, b = WeightSequence(tail=RationalRule(p_a)), WeightSequence(tail=RationalRule(p_b))
        hs = (1000, 3000, 10 ** 5)
        rep = shields_similarity(a, b, hs)
        log_sups, log_infs = shields_scan(a, b, hs)
        assert rep.log_sup_at_horizons == pytest.approx(log_sups, rel=1e-12, abs=1e-12)
        assert rep.log_inf_at_horizons == pytest.approx(log_infs, rel=1e-12, abs=1e-12)

    def test_prefix_only_pair_is_the_full_scan(self):
        a, b = (WeightSequence(prefix=tuple(np.sqrt(np.linspace(lo, 1.0, 400)))) for lo in (0.2, 0.5))
        rep = shields_similarity(a, b, (100, 200, 400))
        log_sups, log_infs = shields_scan(a, b, (100, 200, 400))
        assert rep.log_sup_at_horizons == pytest.approx(log_sups, rel=1e-12, abs=1e-12)
        assert rep.log_inf_at_horizons == pytest.approx(log_infs, rel=1e-12, abs=1e-12)

    def test_long_scan_keeps_its_partial_sums_exact_to_rounding(self):
        # without two tails the scan runs to the last horizon; in float64 its partial sums drifted by about
        # h eps relative, 5e-12 here
        H = 2 ** 18
        a, b = WeightSequence(prefix=(0.5,) * H), WeightSequence(prefix=(0.7,) * H)
        rep = shields_similarity(a, b, (H // 4, H // 2, H))
        for h, log_inf in zip(rep.horizons, rep.log_inf_at_horizons):
            assert log_inf == pytest.approx(h * math.log(0.5 / 0.7), rel=1e-14)

    def test_sequence_past_its_coverage_and_bad_horizons_raise(self):
        short = WeightSequence(prefix=(0.5,) * 8)
        for a, b in ((short, bergman()), (bergman(), short)):
            with pytest.raises(DomainError, match="defines only 8 weights"):
                shields_similarity(a, b, (2 ** 20, 2 ** 21, 2 ** 22))
        for horizons in ((1, 2, 4), (16, 16, 32), (16, 32), (64, 32, 128)):
            with pytest.raises(ConfigurationError):
                shields_similarity(hardy(), bergman(), horizons)

    @pytest.mark.parametrize("a, b", [(hardy(), bergman()), (WeightSequence(tail=RationalRule((4, 5, 2), (2, 2, 1))),
                                                             hardy())], ids=["hardy-bergman", "degree-2"])
    def test_partial_sum_at_2_22_against_mpmath(self, a, b):
        # every term is positive, so the sup at h is S(h) = log prod_{l<h} a_l / b_l
        h = 2 ** 22
        rep = shields_similarity(a, b, (2 ** 20, 2 ** 21, h))
        num, den = poly_mul(a.tail.p, b.tail.q), poly_mul(a.tail.q, b.tail.p)
        with mpmath.workdps(40):
            if a.name == "hardy":
                exact = mpmath.log(h + 1) / 2  # telescoping: prod (l+2)/(l+1) = h + 1
            else:  # prod_{l<h} (l - r) = Gamma(h - r) / Gamma(-r) for each root r
                exact = h * mpmath.log(mpmath.mpf(num[-1]) / den[-1]) / 2 + sum(
                    sign * mpmath.re(mpmath.loggamma(h - r) - mpmath.loggamma(-r)) / 2
                    for c, sign in ((num, 1), (den, -1)) for r in mpmath.polyroots(c[::-1]))
            assert abs(rep.log_sup_at_horizons[-1] - exact) <= 1e-15 * exact


def _verdict(log_sups, log_infs, threshold: float) -> str:
    """The verdict rule of ``ShieldsReport`` applied to the extremes at three horizons."""
    thr = math.log(threshold)
    up = log_sups[0] < log_sups[1] < log_sups[2] and log_sups[2] > thr
    down = log_infs[0] > log_infs[1] > log_infs[2] and log_infs[2] < -thr
    return "not-similar" if up or down else "similar-consistent"


def test_hockey_stick_binomial_identity_exact():
    # C(n, j) = sum_{l=j-1}^{n-1} C(l, j-1), exact in integer arithmetic
    for n in range(2, 41):
        for j in range(1, n):
            assert math.comb(n, j) == sum(math.comb(l, j - 1) for l in range(j - 1, n))
