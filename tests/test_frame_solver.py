"""The bidiagonal frame solve against the dense least-squares route and mpmath.

``blockops.frame_solver`` solves ``(T_1 - w) g = -T_12 t_2`` by a forward
recursion and judges it with the closed-form near-null pair of the upper
bidiagonal ``T_1 - w``.  It must reach the same accept/reject outcome as the
dense ``lstsq`` route (``oracles.dense_frame_solver``), the same ``h[0, 0]``
and the same determinant, and its determinant must match a high-precision
back-substitution (``oracles.mp_frame_det``), which the dense route misses by
up to a few percent when ``T_12 t_2`` reaches the cut row.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdlab import cli, shifts
from cdlab.blockops import BlockOperator, DiagonalBlock, MatrixBlock, ShiftBlock, ZeroBlock, frame_solver
from cdlab.errors import CdlabError, TruncationError
from cdlab.matrix_core import hermitian_det
from cdlab.shifts import hardy, szego
from oracles import block_matrix, dense_frame_solver, mp_frame_det

SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)
RADII = st.just(0.0) | st.floats(min_value=0.0, max_value=0.95)


def random_scale(rng) -> complex:
    return complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random()))


def random_frame_operator(rng) -> BlockOperator:
    """``[[szego(p) * s, T_12], [0, szego(q) * s']]`` with ``T_12`` zero, diagonal,
    a shift, or a matrix whose nonzero rows stop in the top half."""
    N = int(rng.integers(8, 65))
    top = ShiftBlock(szego(int(rng.integers(1, 4))), random_scale(rng))
    bottom = ShiftBlock(szego(int(rng.integers(1, 4))), random_scale(rng))
    kind = rng.integers(5)
    if kind == 0:
        coupling = rng.choice([None, ZeroBlock()])
    elif kind == 1:
        d = rng.uniform(-1.0, 1.0, rng.integers(1, N // 2 + 1)) + 1j * rng.uniform(-1.0, 1.0)
        coupling = DiagonalBlock(tuple(d))
    elif kind == 2:
        coupling = ShiftBlock(szego(int(rng.integers(1, 4))), random_scale(rng))
    else:
        A = np.zeros((N, N), dtype=complex)
        k = int(rng.integers(1, N // 2 + 1))
        A[:k] = rng.uniform(-1.0, 1.0, (k, N)) + 1j * rng.uniform(-1.0, 1.0, (k, N))
        A[rng.random((N, N)) < 0.5] = 0.0
        coupling = MatrixBlock(A)
    return BlockOperator(((top, coupling), (None, bottom)), order=N)


def outcome(solver, B, omega):
    try:
        return solver(B, omega)
    except CdlabError as exc:
        return exc


@given(SEEDS, RADII)
@settings(max_examples=150, deadline=None)
def test_frame_solver_matches_dense_route(seed, r):
    rng = np.random.default_rng(seed)
    B = random_frame_operator(rng)
    omega = r * np.exp(2j * np.pi * rng.random()) if rng.random() < 0.3 else r
    got, want = outcome(frame_solver, B, omega), outcome(dense_frame_solver, B, omega)
    if isinstance(want, CdlabError):
        assert type(got) is type(want)
        assert str(got).split(" ")[:3] == str(want).split(" ")[:3]
        return
    assert not isinstance(got, CdlabError), got
    assert got[0, 0] == want[0, 0]
    det = hermitian_det(got)
    # lstsq returns a solution with an arbitrary multiple of t_1, so its gram
    # cancels |h01|^2 against h00 h11: that product is its rounding scale
    assert abs(det - hermitian_det(want)) <= 1e-12 * want[0, 0].real * want[1, 1].real
    if abs(omega) >= 0.01 and np.any(block_matrix(B, 0, 1)):  # mp_frame_det needs ~3 N log10(1/|w|) digits
        ref = mp_frame_det(B, omega)
        assert abs(det - ref) <= 1e-12 * ref


def cut_row_operator(top, bottom, N, row):
    X = np.zeros((N, N))
    X[row, 0], X[0, 1] = 0.3, 0.2
    return BlockOperator(((ShiftBlock(top), MatrixBlock(X)), (None, ShiftBlock(bottom))), order=N)


@pytest.mark.parametrize("top, bottom, N, r, row", [
    (hardy(), hardy(), 160, 0.9, 159),
    (hardy(), hardy(), 200, 0.93, 150),
    (szego(2), szego(2), 32, 0.6, 31),
])
def test_coupling_at_the_cut_row_matches_mpmath(top, bottom, N, r, row):
    # T_1 - r is invertible here but badly conditioned; the dense route is off
    # by 2.6%, 1e-7 and 5e-4 of these determinants
    B = cut_row_operator(top, bottom, N, row)
    ref = mp_frame_det(B, r)
    assert abs(hermitian_det(frame_solver(B, r)) - ref) <= 1e-10 * ref


def test_coupling_along_the_section_matches_mpmath():
    # T_12 e_0 = e_0 makes g a multiple of t_1 - e_0; without the gauge g _|_ t_1
    # the gram cancels |<t_1, g>|^2 and the determinant is off by 7e-13
    N, r = 400, 0.95
    X = np.zeros((N, N))
    X[0, 0] = 1.0
    B = BlockOperator(((ShiftBlock(szego(3)), MatrixBlock(X)), (None, ShiftBlock(szego(1), 2.0))), order=N)
    ref = mp_frame_det(B, r)
    assert abs(hermitian_det(frame_solver(B, r)) - ref) <= 1e-13 * ref


RESIDUAL_CASES = [0.3, 0.0]  # below numpy's rank cutoff; T_1 - 0 is exactly singular


@pytest.mark.parametrize("r", RESIDUAL_CASES)
def test_coupling_into_the_cut_row_is_rejected(r):
    B = cut_row_operator(hardy(), hardy(), 64, 63)
    for solver in (frame_solver, dense_frame_solver):
        with pytest.raises(TruncationError, match="frame solve residual"):
            solver(B, r)


def frame_request(N, coupling, radii):
    shift = {"kind": "shift", "weights": {"preset": "hardy"}}
    return {"command": "simdiag",
            "source": {"kind": "block", "operator": {"grid": [[shift, coupling], [None, shift]], "N": N}},
            "kernel": {"preset": "szego", "power": 1}, "multiplicity": 2,
            "radii": {"kind": "explicit", "values": radii}}


@pytest.mark.parametrize("r", RESIDUAL_CASES)
def test_rejected_frame_solve_exits_four(tmp_path, capsys, r):
    N = 64
    real = np.zeros((N, N))
    real[N - 1, 0] = 0.3
    req = frame_request(N, {"kind": "matrix", "real": real.tolist()}, [r])
    path = tmp_path / "req.json"
    path.write_text(json.dumps(req))
    assert cli.main([str(path)]) == 4
    assert "frame solve residual" in capsys.readouterr().err


def test_frame_requests_run_no_dense_solve():
    simdiag = cli.parse_request(json.dumps(
        frame_request(512, {"kind": "diagonal", "values": [0.4, -0.2]}, [0.2, 0.5, 0.8])))
    commutator = cli.parse_request(json.dumps({"command": "ex-commutator", "x_diag": [0.3, 0.1], "N": 320}))
    with mock.patch.object(np.linalg, "lstsq", side_effect=AssertionError("lstsq called")), \
            mock.patch.object(np.linalg, "svd", side_effect=AssertionError("svd called")):
        with mock.patch.object(shifts, "dense_matrix", side_effect=AssertionError("dense block formed")):
            report, _ = cli.run(simdiag)
        assert report["samples"] == 3 and report["verdicts"]["source"] == "frame"
        report, _ = cli.run(commutator)
        assert report["closed_form_check"] is True
