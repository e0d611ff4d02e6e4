"""The bidiagonal frame solve against the dense least-squares route and mpmath.

``blockops.frame_solver`` solves ``(T_1 - w) g = -T_12 t_2`` by a forward
recursion and judges it with the closed-form near-null pair of the upper
bidiagonal ``T_1 - w``.  It must reach the same accept/reject outcome as the
dense ``lstsq`` route (``oracles.dense_frame_solver``), the same ``h[0, 0]``
and the same determinant, and its determinant must match a high-precision
back-substitution (``oracles.mp_frame_det``), which the dense route misses by
up to a few percent when ``T_12 t_2`` reaches the cut row.  Given many radii
it solves them all at once, and must return the bytes, or raise the error, of
one solve per radius in order (``oracles.scalar_frame_solver``).
"""

import json
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdlab import blockops, cli, shifts, similarity
from cdlab.blockops import BlockOperator, DiagonalBlock, MatrixBlock, ShiftBlock, ZeroBlock, frame_solver
from cdlab.errors import CdlabError, TruncationError
from cdlab.matrix_core import hermitian_det
from cdlab.shifts import hardy, szego
from oracles import (block_matrix, dense_frame_solver, mp_frame_det, mp_frame_residual, scalar_frame_solver,
                     scalar_section, with_prefix)

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


def outcome(solver, *args):
    try:
        return solver(*args)
    except CdlabError as exc:
        return exc


@given(SEEDS, RADII)
# N = 25, sigma_min 2.0e-14 above numpy's rank cut 7.2e-15: at a condition number of about 5e13 lstsq leaves a
# residual of 2.7e-8 > 1e-8 |T12 t2| = 7.2e-9 and rejects, while the square system solves to 9e-59 relative in mpmath
@example(54, 0.2891689678586101)
@settings(max_examples=150, deadline=None)
def test_frame_solver_matches_dense_route(seed, r):
    rng = np.random.default_rng(seed)
    B = random_frame_operator(rng)
    omega = r * np.exp(2j * np.pi * rng.random()) if rng.random() < 0.3 else r
    got, want = outcome(frame_solver, B, omega), outcome(dense_frame_solver, B, omega)
    if isinstance(got, CdlabError) != isinstance(want, CdlabError):
        # the routes judge the residual apart: lstsq's residual in exact arithmetic settles which one is right
        assert str(got if isinstance(got, CdlabError) else want).startswith("frame solve residual")
        assert isinstance(got, CdlabError) == (mp_frame_residual(B, omega) > 1e-8)
        want = got  # the settled outcome stands in for the dense route's; mp_frame_det below still checks a gram
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


def real_shift(rng) -> ShiftBlock:
    """A shift with a real scale of either sign; one in five has leading weights small enough to overflow
    its sections."""
    weights = szego(int(rng.integers(1, 4)))
    if rng.random() < 0.2:
        weights = with_prefix(weights, 10.0 ** rng.uniform(-250.0, -100.0, int(rng.integers(1, 4))))
    return ShiftBlock(weights, float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])))


def real_coupling(rng, N):
    kind = rng.integers(4)
    if kind == 0:
        return rng.choice([None, ZeroBlock()])
    if kind == 1:
        return DiagonalBlock(tuple(rng.uniform(-1.0, 1.0, rng.integers(1, N // 2 + 1))))
    if kind == 2:
        return real_shift(rng)
    A = np.zeros((N, N))
    k = int(rng.integers(1, N // 2 + 1))
    A[:k] = rng.uniform(-1.0, 1.0, (k, N))
    A[rng.random((N, N)) < 0.5] = 0.0
    return MatrixBlock(A)


@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_batched_grams_are_the_per_radius_bytes(seed):
    # the radii come unsorted, with 0 and sometimes the cap; the first radius that fails must raise its own error
    rng = np.random.default_rng(seed)
    N = int(rng.integers(16, 257))
    B = BlockOperator(((real_shift(rng), real_coupling(rng, N)), (None, real_shift(rng))), order=N)
    radii = np.concatenate([[0.0], rng.uniform(0.0, 0.9, int(rng.integers(1, 7))), [0.95] * (rng.random() < 0.3)])
    radii = rng.permutation(radii)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a g that overflows makes both grams NaN
        got = outcome(frame_solver, B, radii)
        try:
            want = np.array([scalar_frame_solver(B, r) for r in radii])
        except CdlabError as exc:
            want = exc
    if isinstance(want, CdlabError):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert not isinstance(got, CdlabError), got
        assert got.tobytes() == want.tobytes()


def order_request(bottom, radii):
    shift = {"kind": "shift", "weights": {"preset": "hardy"}}
    grid = [[shift, {"kind": "diagonal", "values": [0.4, -0.2]}], [None, {"kind": "shift", "weights": bottom}]]
    return {"command": "simdiag", "source": {"kind": "block", "operator": {"grid": grid, "N": 64}},
            "kernel": {"preset": "szego", "power": 1}, "multiplicity": 2,
            "radii": {"kind": "explicit", "values": radii}}


def test_the_first_failing_radius_raises_its_own_first_error(tmp_path, capsys):
    # at N = 64 the szego(3) section fails from r = 0.8 and the hardy one from 0.85: the second radius fails t_2,
    # the third t_1, and a pass that took every radius's t_1 first would report the third
    path = tmp_path / "req.json"
    path.write_text(json.dumps(order_request({"preset": "szego", "power": 3}, [0.5, 0.8, 0.9])))
    assert cli.main([str(path)]) == 4
    with pytest.raises(TruncationError) as t2_at_second:
        scalar_section(ShiftBlock(szego(3)), 0.8, 64)
    scalar_section(ShiftBlock(hardy()), 0.8, 64)
    assert capsys.readouterr().err == f"cdlab: numerical failure: {t2_at_second.value}\n"


def test_overflowing_section_exits_four_without_warnings(tmp_path, capsys):
    # t = [1, 5e199, inf, nan, ...]: its NaN tail estimate once passed the test and the request exited 3 with
    # "ratio samples must be finite", after four numpy RuntimeWarnings
    bottom = {"prefix": [1e-200, 1e-200], "tail": {"p": [1, 1], "q": [2, 1]}}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(order_request(bottom, [0.5])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([str(path)]) == 4
    assert capsys.readouterr().err == (
        "cdlab: numerical failure: section overflows at |omega|=0.5000: its norm is not finite at N=64\n")


def test_one_frame_solve_per_request():
    simdiag = frame_request(256, {"kind": "diagonal", "values": [0.4, -0.2]}, [0.2, 0.5, 0.8])
    for doc in (simdiag, {"command": "ex-commutator", "x_diag": [0.5, 0.25], "N": 160}):
        with mock.patch.object(similarity, "frame_solver", wraps=frame_solver) as solver:
            cli.run(cli.parse_request(json.dumps(doc)))
        assert solver.call_count == 1, doc["command"]


def test_many_radii_are_solved_in_bounded_slices():
    # 1024 radii per slice at N = 512: one slice holds its 16 MiB interleaved array and the 8 MiB arrays of
    # sections, rhs and g; all 4096 radii at once would need four times that
    radii = np.linspace(0.0, 0.5, 4096).tolist()
    req = cli.parse_request(json.dumps(frame_request(512, {"kind": "diagonal", "values": [0.4, -0.2]}, radii)))
    tracemalloc.start()
    try:
        report, _ = cli.run(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["samples"] == 4096
    assert peak < 5 * blockops.SLICE_ENTRIES * 16


def test_commutator_takes_one_section_per_slice():
    # both diagonal blocks of the commutator example are one Hardy block, so a slice's sections serve both; two
    # equal but distinct blocks take one section each, and the grams are the same bytes
    N, radii = 160, np.linspace(0.05, 0.9, 9)
    with mock.patch.object(blockops, "SLICE_ENTRIES", 2 * N * 4), \
            mock.patch.object(similarity, "frame_solver", wraps=frame_solver) as solver, \
            mock.patch.object(blockops, "section_vector", wraps=blockops.section_vector) as sections:
        similarity.commutator_example([0.5, 0.25, -0.125], N, radii)
        assert sections.call_count == len(blockops._slices(len(radii), N)) == 3
        B = solver.call_args.args[0]
        assert B.blocks[0][0] is B.blocks[1][1]
        shared = frame_solver(B, radii)
        sections.reset_mock()
        twin = BlockOperator(((ShiftBlock(hardy()), B.blocks[0][1]), (None, ShiftBlock(hardy()))), order=N)
        apart = frame_solver(twin, radii)
        assert sections.call_count == 2 * 3
    assert shared.tobytes() == apart.tobytes()


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_section_rows_do_not_depend_on_their_neighbours(seed):
    # each radius's section, or the error of the first failing radius, is the bytes of that radius alone: in one
    # call over every radius, and across the slices of a frame solve that holds three radii each
    rng = np.random.default_rng(seed)
    N, count = int(rng.integers(8, 129)), int(rng.integers(1, 10))
    block = ShiftBlock(szego(int(rng.integers(1, 4))))
    radii = rng.uniform(0.0, 0.9, count) * np.exp(2j * np.pi * rng.random(count))
    section = blockops.section_vector
    alone = [outcome(section, block.weights, radii[i : i + 1], N) for i in range(count)]
    whole = outcome(section, block.weights, radii, N)
    failed = [got for got in alone if isinstance(got, CdlabError)]
    if failed:
        assert (type(whole), str(whole)) == (type(failed[0]), str(failed[0]))
        return
    assert whole.tobytes() == np.concatenate(alone).tobytes()
    rows = []
    recording = lambda *args: rows.append(section(*args)) or rows[-1]
    B = BlockOperator(((block, ZeroBlock()), (None, block)), order=N)  # one block on both cells: one call a slice
    with mock.patch.object(blockops, "SLICE_ENTRIES", 2 * N * 3), \
            mock.patch.object(blockops, "section_vector", recording):
        frame_solver(B, radii)
    assert len(rows) == -(-count // 3)
    assert np.concatenate(rows).tobytes() == whole.tobytes()
