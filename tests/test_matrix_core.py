import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdlab.errors import NonFiniteError, StructureError
from cdlab.matrix_core import DEFAULT_TOL, PsdVerdict, hermitian_det, psd_check, psd_verdict
from cdlab import blockops, shifts
from oracles import schur_split_psd


def random_hermitian(rng, n, scale=1.0):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (G + G.conj().T) / 2.0


def random_unitary(rng, n):
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestHermitianCheck:
    def test_frame_gram_is_hermitian(self):
        # both triangles recomputed independently from the frame vectors
        B = blockops.BlockOperator(
            ((blockops.ShiftBlock(shifts.hardy()), blockops.DiagonalBlock((0.3,))),
             (None, blockops.ShiftBlock(shifts.bergman()))),
            order=96,
        )
        h = blockops.frame_solver(B, 0.3)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        assert abs(h[0, 1] - np.conj(h[1, 0])) <= 1e-14


class TestPsdCheck:
    def test_unweighted_shift_defect(self):
        T = shifts.materialize(shifts.szego(1), 16)
        D = np.eye(16) - T.matrix.conj().T @ T.matrix
        verdict = psd_check(D, 1e-12)
        assert verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_explicit_negative_eigenvalue(self):
        verdict = psd_check(np.diag([1.0, -0.1]))
        assert not verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(-0.1)

    def test_order_two_defect_projection(self):
        T = shifts.materialize(shifts.szego(2), 32)
        D2 = shifts.defect_operator(T, 2)
        verdict = psd_check(D2[:30, :30], 1e-10)
        assert verdict.is_psd
        assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-13)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StructureError):
            psd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_threshold_scales_with_norm(self):
        v = psd_check(np.diag([1e6, -1e-6]), 1e-10)
        assert v.is_psd  # -1e-6 is within 1e-10 * 1e6

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        for n in (3, 6, 10):
            A = random_hermitian(rng, n)
            U = random_unitary(rng, n)
            v1 = psd_check(A)
            v2 = psd_check(U @ A @ U.conj().T)
            assert abs(v1.min_eigenvalue - v2.min_eigenvalue) < 1e-10


def eigvalsh_verdict(stacks, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """``psd_verdict`` with every stack through ``np.linalg.eigvalsh``, width 1 included."""
    min_eig, top = math.inf, 1.0
    for H in stacks:
        if not np.all(np.isfinite(H)):
            raise NonFiniteError("non-finite")
        Hs = np.swapaxes(H.conj(), -1, -2)
        if np.max(np.abs(H - Hs)) > tol:
            raise StructureError("not Hermitian")
        eigs = np.linalg.eigvalsh((H + Hs) / 2.0)
        min_eig = min(min_eig, float(np.min(eigs)))
        top = max(top, float(np.max(np.abs(eigs))))
    return PsdVerdict(min_eig, tol * top, min_eig >= -tol * top)


#: Real parts: signed zeros, subnormals, values near the overflow of ``H + H*``, and any finite float.
REALS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-300, 1e300, -1e300, 1.7e308]) | st.floats(
    allow_nan=False, allow_infinity=False)
#: Imaginary parts: ``|H - H*| = 2 |imag|`` just inside, at and just outside the Hermitian tolerance.
HALF_TOL = DEFAULT_TOL / 2
IMAGS = st.sampled_from([0.0, -0.0, 1e-300, np.nextafter(HALF_TOL, 0.0), HALF_TOL, -HALF_TOL,
                         np.nextafter(HALF_TOL, 1.0), -np.nextafter(HALF_TOL, 1.0)])
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
ENTRY = st.builds(complex, REALS, IMAGS) | st.builds(complex, NON_FINITE, IMAGS) | st.builds(complex, REALS, NON_FINITE)
WIDTH_ONE = st.lists(st.lists(ENTRY, min_size=1, max_size=6), min_size=1, max_size=3).map(
    lambda stacks: [np.array(v, dtype=complex).reshape(-1, 1, 1) if len(v) > 1 else np.array([[v[0]]])
                    for v in stacks])


class TestWidthOne:
    """``psd_verdict`` reads a stack of ``1 x 1`` matrices off its real diagonal, as LAPACK does for order 1."""

    @given(WIDTH_ONE)
    @example([np.array([[[-0.0]], [[0.0]], [[-0.0]]], dtype=complex)])
    @example([np.array([[5e-324 + 1j * HALF_TOL]]), np.array([[[1e300]], [[-1e300]]], dtype=complex)])
    @settings(max_examples=400, deadline=None)
    @np.errstate(over="ignore", invalid="ignore")  # 1.7e308 + 1.7e308 overflows in the symmetrization
    def test_stacks_are_the_eigvalsh_verdict(self, stacks):
        try:
            expected = eigvalsh_verdict(stacks)
        except (NonFiniteError, StructureError) as err:
            with pytest.raises(type(err)):
                psd_verdict(stacks)
            return
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            got = psd_verdict(stacks)
        assert eigvalsh.call_count == 0
        assert got.is_psd == expected.is_psd
        assert np.array([got.min_eigenvalue, got.threshold]).tobytes() == \
            np.array([expected.min_eigenvalue, expected.threshold]).tobytes()

    def test_wider_stacks_keep_the_eigensolve(self):
        rng = np.random.default_rng(3)
        stacks = [np.array([[[0.25]], [[-0.5]]], dtype=complex), np.array([random_hermitian(rng, 3) for _ in range(4)])]
        with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
            got = psd_verdict(stacks)
        assert eigvalsh.call_count == 1
        assert got == eigvalsh_verdict(stacks)

    def test_checks_run_first(self):
        with pytest.raises(NonFiniteError):
            psd_verdict([np.array([[[0.5]], [[math.nan]]], dtype=complex)])
        with pytest.raises(StructureError):
            psd_verdict([np.array([[[0.5]], [[1.0 + 1j * np.nextafter(HALF_TOL, 1.0)]]])])


class TestSchurSplit:
    """The test oracle behind criterion 7, on cases with known answers."""

    def test_identity(self):
        v11, vs = schur_split_psd(np.eye(4), 2)
        assert v11.is_psd and vs.is_psd

    def test_hand_computed_complement(self):
        # [[1,2],[2,1]] split 1: complement 1 - 2*1*2 = -3
        v11, vs = schur_split_psd(np.array([[1.0, 2.0], [2.0, 1.0]]), 1)
        assert v11.is_psd
        assert not vs.is_psd
        assert vs.min_eigenvalue == pytest.approx(-3.0)

    def test_gram_plus_ridge_both_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            G = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            A = G.conj().T @ G + 1e-3 * np.eye(6)
            for split in (1, 3, 5):
                v11, vs = schur_split_psd(A, split)
                assert v11.is_psd and vs.is_psd

    def test_singular_leading_block(self):
        # no Schur complement exists: the split refuses rather than return a verdict
        A = np.zeros((3, 3))
        A[2, 2] = 1.0
        with pytest.raises(np.linalg.LinAlgError):
            schur_split_psd(A, 1)

    def test_split_equivalence_random(self):
        # joint positivity of the split parts <=> positivity of the whole
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            A = random_hermitian(rng, n)
            if rng.random() < 0.5:  # mix in PSD instances
                A = A @ A.conj().T / n
                A = (A + A.conj().T) / 2
            split = int(rng.integers(1, n))
            if np.linalg.cond(A[:split, :split]) >= 1e8:
                continue
            v11, vs = schur_split_psd(A, split)
            assert (v11.is_psd and vs.is_psd) == psd_check(A).is_psd
            checked += 1


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_superadditivity_of_psd_determinants(n, seed):
    rng = np.random.default_rng(seed)
    G1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    N1 = G1.conj().T @ G1
    N2 = G2.conj().T @ G2
    lhs = hermitian_det(N1 + N2)
    rhs = hermitian_det(N1) + hermitian_det(N2)
    assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs))


class TestHermitianDet:
    def test_psd_cholesky_path(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        A = G.conj().T @ G + np.eye(5)
        assert hermitian_det(A) == pytest.approx(np.linalg.det(A).real, rel=1e-12)

    def test_indefinite_lu_fallback(self):
        A = np.diag([2.0, -3.0])
        assert hermitian_det(A) == pytest.approx(-6.0)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_stack_is_the_per_matrix_bytes(self, n):
        # one batched Cholesky for a positive definite stack; one member that is not sends every matrix down
        # its own route, the indefinite one through LU
        rng = np.random.default_rng(n)
        G = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        stack = G.conj().swapaxes(1, 2) @ G + 1e-3 * np.eye(n)
        got = hermitian_det(stack)
        assert isinstance(got, np.ndarray) and got.shape == (6,)
        assert got.tobytes() == np.array([hermitian_det(A) for A in stack]).tobytes()
        stack[3] = random_hermitian(rng, n) - 10.0 * np.eye(n)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(stack[3])
        got = hermitian_det(stack.reshape(2, 3, n, n))
        assert got.shape == (2, 3)
        assert got.tobytes() == np.array([hermitian_det(A) for A in stack]).tobytes()
        assert got[1, 0] == float(np.linalg.det((stack[3] + stack[3].conj().T) / 2.0).real)

    def test_single_matrix_gives_a_float(self):
        assert type(hermitian_det(np.eye(3))) is float
        assert type(hermitian_det(np.diag([2.0, -3.0]))) is float


def test_finite_entries_required():
    with pytest.raises(NonFiniteError):
        psd_check(np.array([[np.nan, 0.0], [0.0, 1.0]]))
