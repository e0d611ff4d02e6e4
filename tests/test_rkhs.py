import io
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from cdlab import rkhs
from cdlab.errors import ConfigurationError, DomainError
from cdlab.rules import RationalRule
from cdlab.rkhs import (
    CurvatureProfile,
    DiagonalKernel,
    boundary_radii,
    curvature_fd,
    curvature_profile,
    curvature_series,
    metric_eval,
    szego_power_coeffs,
    write_curvature_csv,
)
from oracles import power_curvature_closed_form


@pytest.mark.parametrize("K", [szego_power_coeffs(2), DiagonalKernel(prefix=(0.5,), tail=RationalRule((1, 2, 1), (2, 1)))],
                         ids=["closed-form", "swept"])
def test_array_reads_are_the_scalar_reads(K):
    # series_pass reads an array of radii with one row index per kernel: the bytes of the scalar reads, repeats too
    radii = np.array([0.0, 0.3, 0.875, 0.3, 1 - 2.0 ** -12, 0.0, 0.875])
    metric, curvature = rkhs.series_pass([K], [(x, m) for x in radii for m in (0, 2)])
    for read in (metric, curvature):
        got = read(K, radii)
        assert isinstance(got, np.ndarray) and got.shape == radii.shape
        assert got.tobytes() == np.array([read(K, x) for x in radii.tolist()]).tobytes()
        assert all(type(read(K, x)) is float for x in (0.3, radii[2]))


class TestSzegoPowerCoeffs:
    def test_geometric_series(self):
        K = szego_power_coeffs(1)
        assert K.coeffs_slice(0, 5) == pytest.approx([1, 1, 1, 1, 1])

    def test_power_two(self):
        K = szego_power_coeffs(2)
        assert K.coeffs_slice(0, 6) == pytest.approx([1, 2, 3, 4, 5, 6])

    def test_binomial_value(self):
        assert szego_power_coeffs(3).coeffs_slice(0, 5)[4] == pytest.approx(math.comb(6, 4))

    def test_zero_power_rejected(self):
        with pytest.raises(DomainError):
            szego_power_coeffs(0)

    def test_polynomial_growth_tail_accepted(self):
        # b_n ~ n^3 + 1 still has radius of convergence 1
        K = DiagonalKernel(tail=RationalRule((1, 0, 0, 1)))
        assert metric_eval(K, 0.5) > 0


class TestMetricEval:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_closed_form(self, k):
        K = szego_power_coeffs(k)
        for r in np.arange(0.0, 0.95, 0.05):
            assert metric_eval(K, r) == pytest.approx((1 - r * r) ** -k, rel=1e-12)

    def test_constant_term_at_origin(self):
        K = DiagonalKernel(prefix=(7.0, 1.0), tail=RationalRule((1,)))
        assert metric_eval(K, 0.0) == 7.0

    def test_specific_value(self):
        assert metric_eval(szego_power_coeffs(2), 0.5) == pytest.approx(16 / 9)

    def test_domain(self):
        with pytest.raises(DomainError):
            metric_eval(szego_power_coeffs(1), 1.0)

    def test_deep_boundary(self):
        r = 1 - 2.0 ** -12
        K = szego_power_coeffs(3)
        assert metric_eval(K, r) == pytest.approx((1 - r * r) ** -3, rel=1e-12)

    @pytest.mark.parametrize("c, p, swept", [
        pytest.param(c, p, swept, id=f"{c}-{p}" + "-swept" * swept) for swept in (False, True)
        for c, p in [(1.0, 1), (1.0, 2), (1.0, 3), (1.0, 4), (0.625, 1), (1.75, 2), (0.5, 3)]])
    def test_deep_boundary_sums_against_mpmath(self, c, p, swept):
        # g(t) = c - 1 + (1-t)^-p: b_0 = c, b_n = C(n+p-1, n); c = 1 is szego_power_coeffs(p).
        # These tails take the closed form; the sweep, its oracle, is pinned here by name too.
        K = szego_power_coeffs(p) if c == 1.0 else DiagonalKernel(prefix=(c,), tail=szego_power_coeffs(p).tail)
        r = 1 - 2.0 ** -12
        t = r * r
        with mpmath.workdps(40):
            s = 1 - mpmath.mpf(t)
            exact = [c - 1 + s ** -p, p * s ** -(p + 1), p * (p + 1) * s ** -(p + 2)]
            got = rkhs._swept_sums(K, np.array([t]), np.array([2]))[0] if swept else rkhs._series_sums(K, t, 2)
            for m in range(3):
                assert abs(got[m] - exact[m]) <= 1e-13 * exact[m]

    def test_term_ratio_bound_covers_an_interior_maximum(self, monkeypatch):
        # b_n = n^2 + 10^9: b_{n+1}/b_n - 1 peaks at 3.16e-5 near n = 31622, while it is
        # at most 1.53e-5 at n, 2n and 4n for the first chunk's end n = 2047
        K = DiagonalKernel(tail=RationalRule((10 ** 9, 0, 1)))
        bound, used = rkhs._term_ratio_bound, {}

        def recording(K, t, n_last, max_order):
            used[n_last] = bound(K, t, n_last, max_order)
            return used[n_last]

        monkeypatch.setattr(rkhs, "_term_ratio_bound", recording)
        t = (1 - 2.0 ** -12) ** 2
        rkhs._swept_sums(K, np.array([t]), np.array([0]))  # the closed form takes this tail: call the sweep by name
        b = [n * n + 10 ** 9 for n in range(2047, 200_002)]
        exact = max(Fraction(b[i + 1], b[i]) for i in range(len(b) - 1))
        assert Fraction(float(used[2047][0])) >= Fraction(t) * exact

    def test_section_norm_identity(self):
        # metric * (1 - r^2)^n telescopes to 1 for the power kernels
        for n in (1, 2, 4):
            K = szego_power_coeffs(n)
            for r in (0.1, 0.5, 0.9):
                assert metric_eval(K, r) * (1 - r * r) ** n == pytest.approx(1.0, abs=1e-12)


class TestCurvature:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_series_closed_form(self, n):
        K = szego_power_coeffs(n)
        for r in np.arange(0.0, 0.95, 0.1):
            assert curvature_series(K, r) == pytest.approx(-n / (1 - r * r) ** 2, rel=1e-10)

    def test_quotient_is_power_ratio(self):
        K1, K2 = szego_power_coeffs(1), szego_power_coeffs(2)
        for r in np.arange(0.0, 0.95, 0.1):
            assert curvature_series(K1, r) / curvature_series(K2, r) == pytest.approx(0.5, abs=1e-10)

    def test_monotone_in_power(self):
        for k in (1, 2, 3):
            Ka, Kb = szego_power_coeffs(k), szego_power_coeffs(k + 1)
            for r in (0.0, 0.3, 0.7):
                ratio = curvature_series(Kb, r) / curvature_series(Ka, r)
                assert ratio == pytest.approx((k + 1) / k, abs=1e-10)

    def test_origin_value_from_coefficients(self):
        K = DiagonalKernel(prefix=(2.0, 3.0), tail=RationalRule((1,)))
        assert curvature_series(K, 0.0) == pytest.approx(-3.0 / 2.0)

    def test_fd_matches_series(self):
        # agreement within max(1e-6, 10 step^2), scaled by the curvature size
        for n in (1, 2, 3):
            K = szego_power_coeffs(n)
            for step in (1e-3, 3e-3):
                for r in np.arange(0.1, 0.75, 0.1):
                    fd = curvature_fd(K, r, step)
                    exact = curvature_series(K, r)
                    tol = max(1e-6, 10 * step ** 2) * max(1.0, abs(exact))
                    assert abs(fd - exact) <= tol

    def test_fd_spot_values(self):
        assert curvature_fd(szego_power_coeffs(2), 0.5, 1e-3) == pytest.approx(-2 / 0.75 ** 2, abs=1e-4)
        assert curvature_fd(szego_power_coeffs(1), 0.3, 1e-3) == pytest.approx(-1 / 0.91 ** 2, abs=1e-5)

    def test_fd_flat_metric(self):
        K = DiagonalKernel(prefix=(1.0,))
        assert curvature_fd(K, 0.4, 1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_fd_stencil_domain(self):
        with pytest.raises(DomainError):
            curvature_fd(szego_power_coeffs(1), 1e-4, 1e-3)


class TestProfilesAndCsv:
    def test_closed_form_profile(self):
        r = np.arange(0.0, 0.95, 0.1)
        p = curvature_profile(szego_power_coeffs(2), r)
        assert p.method == "series"
        assert p.values == pytest.approx(power_curvature_closed_form(2, r), rel=1e-10)

    def test_series_profile_negative(self):
        p = curvature_profile(szego_power_coeffs(2), np.arange(0.0, 0.95, 0.1))
        assert np.all(p.values < 0)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            CurvatureProfile(np.array([0.1, 0.2]), np.array([1.0]), "series")
        with pytest.raises(DomainError):
            CurvatureProfile(np.array([0.1]), np.array([np.inf]), "series")

    def test_boundary_radii(self):
        r = boundary_radii()
        assert r[0] == 0.875
        assert r[-1] == 1 - 2.0 ** -12
        assert len(r) == 10

    def test_csv_round_trip(self):
        p = curvature_profile(szego_power_coeffs(1), np.array([0.1, 0.5]))
        buf = io.StringIO()
        write_curvature_csv(p, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "r,value,method"
        r0, v0, m0 = lines[1].split(",")
        assert float(r0) == 0.1 and m0 == "series"
        assert float(v0) == pytest.approx(curvature_series(szego_power_coeffs(1), 0.1))
