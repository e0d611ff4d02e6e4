"""The grade-block defect engine against the dense route.

Upper-triangular grids of shifts, diagonals and zeros lower a grading of the
basis by one, so their defects are certified block by block; every verdict
and number must match a dense eigensolve of the whole window.  The builders
record that grading and the operator's entries, so the graded routes never
form the dense matrix.  An ungraded operator is the engine's one-block case;
the dense reference is ``oracles.polynomial_defect``.  The rank-one
detector's graded route (diagonal defect, bidiagonal sections) is pinned
against ``oracles.dense_rank_one_check``.
"""

import json
import math
import re
import time
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cdlab import blockops, cli, shifts
from cdlab.blockops import BlockOperator, DiagonalBlock, MatrixBlock, ShiftBlock, ZeroBlock
from cdlab.errors import TruncationError
from cdlab.shifts import WeightSequence, szego
from oracles import (
    bidiagonal_null,
    dense_assemble,
    dense_cascade_leaks,
    dense_contraction_verdict,
    dense_defect,
    dense_defect_verdicts,
    dense_operator,
    dense_rank_one_check,
    dense_window_norms,
    with_prefix,
)

TOL = 1e-10
SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)


def counterexample_weights() -> WeightSequence:
    return with_prefix(szego(2), [math.sqrt(13 / 25)])


def random_weights(rng, N) -> WeightSequence:
    kind = rng.integers(3)
    if kind == 0:
        return szego(int(rng.integers(1, 4)))
    if kind == 1:
        return counterexample_weights()
    return WeightSequence(prefix=tuple(rng.uniform(0.2, 1.2, N)))


def random_scale(rng) -> complex:
    if rng.random() < 0.5:
        return 1.0
    return complex(rng.uniform(-1.1, 1.1), rng.uniform(-1.1, 1.1))


def random_coupling(rng, N):
    kind = rng.integers(5)
    if kind == 0:
        return None
    if kind == 1:
        return ZeroBlock()
    if kind == 2:
        return ShiftBlock(random_weights(rng, N), random_scale(rng))
    d = rng.uniform(-0.6, 0.6, rng.integers(0, N + 1)) + 1j * rng.uniform(-0.6, 0.6)
    d[rng.random(len(d)) < 0.3] = 0.0
    return DiagonalBlock(tuple(d))


def random_grid(rng, matrix_blocks=False) -> BlockOperator:
    """A 1x1, 2x2 or 3x3 upper-triangular grid of shift, diagonal and zero blocks.

    With ``matrix_blocks``, one block on or above the grid diagonal is
    replaced by an explicit matrix block.
    """
    m = int(rng.integers(1, 4))
    N = int(rng.integers(8, 17))
    grid = [[None] * m for _ in range(m)]
    for i in range(m):
        u = rng.random()
        if u < 0.8:
            grid[i][i] = ShiftBlock(random_weights(rng, N), random_scale(rng))
        elif u < 0.9:
            grid[i][i] = ZeroBlock()
        else:  # a diagonal block on the diagonal admits no grading: dense route
            grid[i][i] = DiagonalBlock(tuple(rng.uniform(-0.5, 0.5, N)))
        for j in range(i + 1, m):
            grid[i][j] = random_coupling(rng, N)
    if matrix_blocks:
        i, j = sorted(int(v) for v in rng.integers(0, m, 2))
        A = rng.uniform(-0.5, 0.5, (N, N)) + 1j * rng.uniform(-0.5, 0.5, (N, N))
        A[rng.random((N, N)) < 0.5] = 0.0
        grid[i][j] = MatrixBlock(A)
    return BlockOperator(grid, order=N)


def one_block_route():
    """Lay every operator out as its ungraded copy: the engine's one-block (dense) case."""
    layout = shifts._grade_layout
    return mock.patch.object(shifts, "_grade_layout", lambda T: layout(dense_operator(T.matrix)))


def assert_verdicts_agree(got, want):
    assert got.is_psd == want.is_psd
    scale = want.threshold / TOL  # max(1, max |eigenvalue|)
    assert abs(got.min_eigenvalue - want.min_eigenvalue) <= 1e-13 * scale
    assert abs(got.threshold - want.threshold) <= 1e-13 * want.threshold


@given(SEEDS)
@settings(max_examples=120, deadline=None)
def test_defect_report_matches_dense_route(seed):
    rng = np.random.default_rng(seed)
    T = blockops.assemble(random_grid(rng))
    n = int(rng.integers(1, 5))
    rep = shifts.defect_report(T, n)
    for k, want in enumerate(dense_defect_verdicts(T, n, TOL), start=1):
        assert rep.verdicts[k - 1] == want.is_psd
        assert abs(rep.min_eigenvalues[k - 1] - want.min_eigenvalue) <= 1e-13 * want.threshold / TOL
    (Dn,) = shifts.defect_blocks(T, (n,))
    dense = dense_defect(T, n)
    start = int(rng.integers(0, T.order))
    want = np.linalg.norm(dense[start:], axis=0)
    np.testing.assert_allclose(Dn.column_norms(np.arange(T.order), start), want, rtol=1e-13,
                               atol=1e-13 * max(1.0, np.max(np.abs(dense))))


@given(SEEDS)
@settings(max_examples=120, deadline=None)
def test_contraction_and_window_norms_match_dense_route(seed):
    B = random_grid(np.random.default_rng(seed))
    T = blockops.assemble(B)
    assert_verdicts_agree(blockops.contraction_check(T, TOL), dense_contraction_verdict(T, TOL))
    np.testing.assert_allclose(B.window_norms(), dense_window_norms(B), rtol=1e-12, atol=0.0)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_cascade_matches_dense_route(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    N = int(rng.integers(12, 33))
    bottom = ShiftBlock(random_weights(rng, N), random_scale(rng))
    B = BlockOperator(((ShiftBlock(szego(n)), random_coupling(rng, N)), (None, bottom)), order=N)
    T = blockops.assemble(B)
    (Dn,) = shifts.defect_blocks(T, (n,))
    np.testing.assert_allclose(Dn.column_norms(np.arange(1, N - n - 1), N), dense_cascade_leaks(T, n, N),
                               rtol=1e-13, atol=1e-15)
    got = blockops.cascade_reducibility(B, n)
    with one_block_route():
        want = blockops.cascade_reducibility(B, n)
    assert (got.reducible, got.witness) == (want.reducible, want.witness)


@pytest.mark.parametrize("N", [8, 9, 16, 32])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_counterexample_shift(N, n):
    T = shifts.materialize(counterexample_weights(), N)
    rep = shifts.defect_report(T, n)
    want = dense_defect_verdicts(T, n, TOL)
    assert rep.verdicts == tuple(v.is_psd for v in want)
    assert rep.verdicts == tuple(k == 1 for k in range(1, n + 1))
    for got, v in zip(rep.min_eigenvalues, want):
        assert abs(got - v.min_eigenvalue) <= 1e-13 * v.threshold / TOL


def test_grid_blocks_stay_within_grid_size():
    rng = np.random.default_rng(5)
    for _ in range(40):
        B = random_grid(rng)
        T = blockops.assemble(B)
        index = shifts._grade_layout(T)[0]
        shift_diagonal = all(isinstance(B.blocks[i][i], (ShiftBlock, ZeroBlock)) for i in range(B.grid_size))
        if shift_diagonal and B.grid_size <= 2:
            assert T.grading is not None
        if T.grading is not None:
            assert index.shape[1] <= B.grid_size
        else:
            np.testing.assert_array_equal(index, [np.arange(T.order)])


def test_matrix_block_grid_equals_dense_route():
    rng = np.random.default_rng(11)
    for N in (8, 12, 20):
        A = 0.4 * (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) / math.sqrt(N)
        for B in (BlockOperator(((MatrixBlock(A),),), order=N),
                  BlockOperator(((ShiftBlock(szego(2)), MatrixBlock(A)), (None, ShiftBlock(szego(1)))), order=N)):
            T = blockops.assemble(B)
            assert T.grading is None and shifts._grade_layout(T)[0].shape == (1, T.order)
            assert blockops.contraction_check(T, TOL) == dense_contraction_verdict(T, TOL)
            rep = shifts.defect_report(T, 3)
            want = dense_defect_verdicts(T, 3, TOL)
            assert rep.min_eigenvalues == tuple(v.min_eigenvalue for v in want)
            assert rep.verdicts == tuple(v.is_psd for v in want)


@settings(max_examples=40, deadline=None)
@given(SEEDS)
def test_graded_routes_build_no_dense_matrix(seed):
    # hypercontract, contraction, unit-norm-block and cascade read the grading
    # and entries their builders record; they match the dense route
    rng = np.random.default_rng(seed)
    N = int(rng.integers(13, 40))
    w = random_weights(rng, N)
    n = int(rng.integers(1, 5))
    B = BlockOperator(((ShiftBlock(szego(n)), random_coupling(rng, N)),
                       (None, ShiftBlock(w, random_scale(rng)))), order=N)

    def routes():
        return (shifts.hypercontractivity_report(w, n, N), blockops.blockwise_contraction_scan(B),
                blockops.unit_norm_reducibility(B), blockops.cascade_reducibility(B, n))

    with one_block_route():
        want = routes()
    with mock.patch.object(shifts, "dense_matrix", side_effect=AssertionError("dense matrix built")):
        got = routes()
    wanted = dense_defect_verdicts(shifts.materialize(w, N), n, TOL)
    assert got[0].verdicts == want[0].verdicts == tuple(v.is_psd for v in wanted)
    for a, v in zip(got[0].min_eigenvalues, wanted):
        assert abs(a - v.min_eigenvalue) <= 1e-13 * v.threshold / TOL
    assert_verdicts_agree(got[1].assembled, want[1].assembled)
    np.testing.assert_array_equal(got[1].window_norms, want[1].window_norms)
    assert got[2].reducible == want[2].reducible
    assert (got[3].reducible, got[3].witness) == (want[3].reducible, want[3].witness)


@given(SEEDS)
@settings(max_examples=80, deadline=None)
def test_assembled_entries_and_grading_match_dense_placement(seed):
    rng = np.random.default_rng(seed)
    B = random_grid(rng, matrix_blocks=rng.random() < 0.5)
    T = blockops.assemble(B)
    M = dense_assemble(B)
    np.testing.assert_array_equal(T.matrix, M)
    if T.grading is not None:  # every nonzero entry lowers the recorded grade by one in one component
        component, grade = T.grading
        rows, cols = np.nonzero(M)
        assert np.array_equal(component[rows], component[cols])
        assert np.array_equal(grade[rows], grade[cols] - 1)


@given(SEEDS)
@settings(max_examples=80, deadline=None)
def test_defect_operator_matches_dense_route(seed):
    # the engine's blocks scattered into a dense matrix, graded or not
    rng = np.random.default_rng(seed)
    T = blockops.assemble(random_grid(rng, matrix_blocks=rng.random() < 0.5))
    k = int(rng.integers(1, 5))
    want = dense_defect(T, k)
    np.testing.assert_allclose(shifts.defect_operator(T, k), want, rtol=0.0,
                               atol=1e-13 * max(1.0, np.max(np.abs(want))))


def rank_one_request(N: int, power: int, order: int, radii=None, scale: float = 1.0) -> dict:
    doc = {"command": "reduce", "detector": "rank-one-defect", "order": order,
           "operator": {"N": N, "grid": [[{"kind": "shift", "weights": {"preset": "szego", "power": power},
                                           "scale": scale}]]}}
    if radii is not None:
        doc["radii"] = {"kind": "explicit", "values": radii}
    return doc


def test_graded_rank_one_request_reads_the_engine():
    # the rank-one detector's defect comes from the grade blocks of the assembled shift
    calls = []
    layout = shifts._grade_layout

    def recording(T):
        calls.append((T, layout(T)))
        return calls[-1][1]

    with mock.patch.object(shifts, "_grade_layout", recording), \
            mock.patch.object(shifts, "dense_matrix", side_effect=AssertionError("dense matrix built")):
        report, _ = cli.run(cli.parse_request(json.dumps(rank_one_request(48, 2, 2))))
    assert report["reducible"] is True
    ((T, (index, _, _)),) = calls
    want = shifts.materialize(szego(2), 48)
    for got, expected in zip((*T.entries, *T.grading), (*want.entries, *want.grading)):
        np.testing.assert_array_equal(got, expected)
    assert index.shape == (48, 1)


@pytest.mark.parametrize("N", [64, 256])
@pytest.mark.parametrize("power,order", [(1, 1), (2, 2), (1, 3), (2, 4)], ids=["1-1", "2-2", "1-3", "2-4"])
@pytest.mark.parametrize("radii", [None, [-0.5, 0.0, 0.25, 0.7]], ids=["default-radii", "explicit-radii"])
def test_graded_rank_one_requests_take_no_svd(N, power, order, radii):
    # a single shift's defect is diagonal and its sections come from the bidiagonal recursion
    req = cli.parse_request(json.dumps(rank_one_request(N, power, order, radii)))
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("SVD taken")), \
            mock.patch.object(shifts, "dense_matrix", side_effect=AssertionError("dense matrix built")):
        report, _ = cli.run(req)
    assert report["reducible"] is (True if power == order else None)
    if power == order:
        assert report["top_singular_values"][0] == pytest.approx(1.0, abs=1e-14)
        assert report["top_singular_values"][1] <= 1e-14
        np.testing.assert_allclose(report["metric_samples"], report["expected_metric"], rtol=1e-12)
    else:
        assert report["witness"].startswith("defect rank exceeds one")


def test_rank_one_request_at_4096_is_fast():
    req = cli.parse_request(json.dumps(rank_one_request(4096, 2, 2)))
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        report, _ = cli.run(req)
        best = min(best, time.perf_counter() - start)
    assert report["reducible"] is True
    assert best < 0.1


def test_zero_scale_shift_fails_the_rank_test_before_any_section():
    # scale 0 is the only way to a zero superdiagonal entry: then D_n = I, and no section is taken
    req = cli.parse_request(json.dumps(rank_one_request(32, 2, 2, scale=0.0)))
    with mock.patch.object(blockops, "_recursion", side_effect=AssertionError("section taken")):
        report, _ = cli.run(req)
    assert report["reducible"] is None
    assert report["top_singular_values"] == [1.0, 1.0]
    assert report["witness"] == "defect rank exceeds one (second singular value 1.000e+00)"


#: The report of a rank-one request on a 1x1 grid with no nonzero entry: its defect is the identity.
IDENTITY_DEFECT_REPORT = """{
  "command": "reduce",
  "curvature_samples": null,
  "detector": "rank-one-defect",
  "expected_metric": null,
  "metric_samples": null,
  "radii": null,
  "reducible": null,
  "top_singular_values": [
    1.0,
    1.0
  ],
  "witness": "defect rank exceeds one (second singular value 1.000e+00)"
}
"""


@pytest.mark.parametrize("cell", [{"kind": "zero"}, None, {"kind": "diagonal", "values": [0.0, -0.0, 0.0]},
                                  {"kind": "diagonal"}, {"kind": "matrix", "real": [[0.0] * 16] * 16}],
                         ids=["zero", "null", "zero-diagonal", "empty-diagonal", "zero-matrix"])
def test_grid_with_no_entry_takes_the_graded_route(cell):
    # no nonzero entry leaves the 1x1 grid graded: its defect is read off the diagonal, with no SVD
    doc = {"command": "reduce", "detector": "rank-one-defect", "order": 2, "operator": {"N": 16, "grid": [[cell]]}}
    req = cli.parse_request(json.dumps(doc))
    with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("SVD taken")):
        report, csv = cli.run(req)
    assert (cli.render_report(report), csv) == (IDENTITY_DEFECT_REPORT, None)


def test_many_rank_one_radii_are_judged_in_bounded_slices():
    # 1024 radii per slice at N = 512: one slice holds its 16 MiB interleaved accumulate, whose strided view is
    # judged as the sections; a copy of those sections (8 MiB), or all 4096 radii at once, would pass the bound
    radii = np.linspace(0.0, 0.5, 4096).tolist()
    req = cli.parse_request(json.dumps(rank_one_request(512, 2, 2, radii)))
    tracemalloc.start()
    try:
        report, _ = cli.run(req)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["reducible"] is True and len(report["metric_samples"]) == 4096
    assert peak < 1.25 * blockops.SLICE_ENTRIES * 16


def test_overflowing_rank_one_defect_exits_four_without_warnings(tmp_path, capsys):
    # the defect of a shift scaled by 1e200 overflows; it once answered exit 0 with singular values 1e308 and
    # "second singular value inf", after two numpy RuntimeWarnings
    doc = rank_one_request(16, 1, 1, scale=1e200)
    doc["operator"]["grid"][0][0]["weights"] = {"preset": "hardy"}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([str(path)]) == 4
    assert capsys.readouterr().err == (
        "cdlab: numerical failure: matrix has non-finite entries (overflow); rescale the operator\n")


def section_outcome(B, n, radii):
    """``(witness, metric bytes)`` of the rank-one detector: the witness when a section fails or none is
    taken (the error message when one raises), the metric bytes when every section passes."""
    try:
        rep = blockops.rank_one_defect_check(B, n, radii)
    except TruncationError as exc:
        return str(exc), None
    if rep.metric_samples is None:
        return rep.verdict.witness, None
    return (rep.verdict.reducible, rep.verdict.witness), rep.metric_samples.tobytes()


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_rank_one_radii_are_judged_apart_from_their_neighbours(seed):
    # each radius's metric sample is the bytes of that radius alone, and the first radius whose section fails
    # alone decides the report, whether the radii share one slice or take two a slice
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    N = int(rng.integers(n + 2, 65))
    w = szego(n)
    if rng.random() < 0.5:  # weights past the defect window: the defect stays the unit projection
        values = w.weights(N - 1)
        k = int(rng.integers(1, n + 1))
        values[N - 1 - k:] *= 1e-200 if rng.random() < 0.3 else rng.uniform(0.5, 2.0, k)
        w = with_prefix(w, values)
    B = BlockOperator(((ShiftBlock(w, float(rng.choice([-1.0, 1.0]))),),), order=N)
    radii = rng.uniform(-0.8, 0.8, int(rng.integers(1, 8)))
    alone = [section_outcome(B, n, [r]) for r in radii]
    failed = [witness for witness, metric in alone if metric is None]
    whole = section_outcome(B, n, radii)
    if failed:
        assert whole == (failed[0], None)
    else:
        assert whole[1] == b"".join(metric for _, metric in alone)
    with mock.patch.object(blockops, "SLICE_ENTRIES", 2 * N * 2):
        assert section_outcome(B, n, radii) == whole

def test_overflowed_section_is_not_reducible():
    # the last three weights lie past the window, so the defect is the unit projection; the
    # section overflows there (inf, then NaN) and reads as orthogonal, not as a matching metric
    N = 16
    weights = szego(3).weights(N - 1)
    weights[-3:] = 1e-200
    B = BlockOperator(((ShiftBlock(with_prefix(szego(3), weights)),),), order=N)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = blockops.rank_one_defect_check(B, 3, [0.5])
    assert rep.top_singular_values[1] <= 1e-8
    assert (rep.verdict.reducible, rep.verdict.witness) == (None, "section at r=0.5 is orthogonal to the defect vector")
    assert dense_rank_one_check(blockops.assemble(B), 3, [0.5]).verdict.reducible is None


def unsigned_zeros(x: np.ndarray) -> np.ndarray:
    v = x.copy().view(float)  # a copy: the rows of blockops._recursion are strided views
    v[v == 0.0] = 0.0
    return v


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_batched_sections_are_the_scalar_loop(seed):
    # every radius's section in one accumulate against the scalar recursion (oracles.bidiagonal_null): numpy
    # divides by a real-valued complex as a multiply by its reciprocal, so only the signs of zeros may differ,
    # overflow (inf, then NaN) included; the detector reads them only through norms and |<e, x>|
    rng = np.random.default_rng(seed)
    N = int(rng.integers(2, 200))
    upper = (10.0 ** rng.uniform(-5.0, 5.0, N - 1) * rng.choice([-1.0, 1.0], N - 1)).astype(complex)
    if rng.random() < 0.3:
        upper[rng.integers(N - 1)] = 1e-300
    radii = np.concatenate([[0.0], rng.uniform(-0.99, 0.99, 4)])
    for r, row in zip(radii, blockops._recursion(1.0, radii, upper)):
        assert unsigned_zeros(row).tobytes() == unsigned_zeros(bidiagonal_null(upper, r, N)).tobytes()


@st.composite
def single_shifts(draw):
    """A 1x1 grid of a scaled shift, an order ``n`` and radii for the rank-one detector.

    Weights are szego(p), often with ``p = n``, possibly with a prefix: ``sqrt(2)`` (the order-1
    defect then has the eigenvalue -1), random leading weights, or the
    szego weights with the last ``k <= n`` changed; those lie past the
    defect window, so the defect stays a unit projection and the sections
    change.
    """
    n = draw(st.integers(1, 4))
    p = draw(st.one_of(st.just(n), st.integers(1, 4)))
    N = draw(st.integers(n + 2, 40))
    magnitude = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.2, exclude_min=True)))
    scale = draw(st.sampled_from([1.0, -1.0])) * magnitude
    w = szego(p)
    kind = draw(st.sampled_from(["szego", "sqrt2", "leading", "trailing"]))
    if kind == "sqrt2":
        w = with_prefix(w, [math.sqrt(2)])
    elif kind == "leading":
        w = with_prefix(w, draw(st.lists(st.floats(0.05, 1.5), min_size=1, max_size=3)))
    elif kind == "trailing":
        k = draw(st.integers(1, n))
        values = w.weights(N - 1)
        values[N - 1 - k:] *= draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k))
        w = with_prefix(w, values)
    radii = draw(st.lists(st.one_of(st.just(0.0), st.floats(-0.9, 0.9)), min_size=1, max_size=5))
    return BlockOperator(((ShiftBlock(w, scale),),), order=N), n, radii


def rank_one_outcome(route, operator, n, radii):
    """The verdict and its text with every printed ``%.3e`` number masked: the two routes agree on those
    numbers only to round-off, which moves a value on a four-digit rounding tie to the next digit."""
    try:
        rep = route(operator, n, radii)
    except TruncationError as exc:
        return ("TruncationError", _masked(str(exc))), None
    return (rep.verdict.reducible, _masked(rep.verdict.witness)), rep


def _masked(text: str) -> str:
    return re.sub(r"-?\d\.\d{3}e[+-]\d+", "#", text)


def section_tail_ratios(T, r):
    """``|x[-1]|^2 / |x|^2`` of the recursion's section and of the dense route's singular vector."""
    upper = np.zeros(T.order - 1, dtype=complex)
    upper[T.entries[0]] = T.entries[2]
    t = np.cumprod(np.concatenate(([1.0], r / upper)))
    v = np.linalg.svd(T.matrix - r * np.eye(T.order))[2][-1]
    return abs(t[-1]) ** 2 / np.vdot(t, t).real, abs(v[-1]) ** 2


def mp_section_metric(T, r) -> float:
    """``|t|^2`` of the truncated section ``t_0 = 1``, ``t_{i+1} = r t_i / u_i``, in 40 digits."""
    with mpmath.workdps(40):
        upper = [mpmath.mpc(complex(v)) for v in T.entries[2]]
        t, total = mpmath.mpc(1), mpmath.mpf(1)
        for u in upper:
            t = mpmath.mpf(float(r)) * t / u
            total += abs(t) ** 2
        return float(total)


#: The defect's second singular value is 2.9375, a tie at four digits: the graded route prints "2.938e+00",
#: the dense SVD's 2.9374999999999996 prints "2.937e+00".
ROUNDING_TIE = (BlockOperator(((ShiftBlock(with_prefix(szego(1), [1.5, 0.5, 1.5])),),), order=34), 2, [0.0])


@given(single_shifts())
@example(ROUNDING_TIE)
@settings(max_examples=300, deadline=None)
def test_rank_one_graded_route_matches_dense_route(case):
    B, n, radii = case
    T = blockops.assemble(B)
    got, got_rep = rank_one_outcome(blockops.rank_one_defect_check, B, n, radii)
    want, want_rep = rank_one_outcome(dense_rank_one_check, T, n, radii)
    sections = want_rep is None or (want_rep.top_singular_values[1] <= 1e-8
                                    and abs(want_rep.top_singular_values[0] - 1.0) <= 1e-6)
    if sections:
        # The two routes judge the cut on different vectors: the recursion's section is the exact
        # kernel of the uncut rows, the dense singular vector damps its last entries (by up to ~70x
        # in |x[-1]|^2 here).  Skip draws where 1e-11 lies between the two ratios, widened by 2.
        ratios = [section_tail_ratios(T, r) for r in radii]
        assume(not any(min(a, b) / 2 <= 1e-11 <= 2 * max(a, b) for a, b in ratios))
    assert got == want
    if got_rep is None:
        return
    np.testing.assert_allclose(got_rep.top_singular_values, want_rep.top_singular_values, rtol=1e-15, atol=1e-15)
    if want_rep.metric_samples is None:
        assert got_rep.metric_samples is None
        return
    # the recursion's metric is the truncated section's to rounding; the dense singular vector
    # differs from that section by O(rho) relative (measured up to 47 rho), rho the largest tail ratio
    rho = max(a for a, _ in ratios)
    np.testing.assert_allclose(got_rep.metric_samples, [mp_section_metric(T, r) for r in radii], rtol=1e-13)
    np.testing.assert_allclose(got_rep.metric_samples, want_rep.metric_samples, rtol=1e-12 + 1e3 * rho)
    np.testing.assert_array_equal(got_rep.expected_metric, want_rep.expected_metric)
    if want_rep.curvature_samples is not None:
        np.testing.assert_array_equal(got_rep.curvature_samples, want_rep.curvature_samples)


def wide_grid(scale: float, N: int, split_last: bool = False) -> dict:
    """A 6x6 grid of scaled szego:2 shifts on the grid diagonal and superdiagonal: six basis
    vectors per grade.  With ``split_last`` the last row is an unscaled hardy shift on its own."""
    shift = {"kind": "shift", "weights": {"preset": "szego", "power": 2}, "scale": scale}
    grid = [[shift if j in (i, i + 1) else None for j in range(6)] for i in range(6)]
    if split_last:
        grid[4][5], grid[5][5] = None, {"kind": "shift", "weights": {"preset": "hardy"}}
    return {"N": N, "grid": grid}


@pytest.mark.parametrize("doc", [
    {"command": "contraction", "operator": wide_grid(0.5, 16)},
    {"command": "contraction", "operator": wide_grid(0.6, 16)},
    {"command": "reduce", "detector": "unit-norm-block", "operator": wide_grid(0.5, 16)},
    {"command": "reduce", "detector": "unit-norm-block", "operator": wide_grid(0.5, 16, split_last=True)},
], ids=["contraction", "non-contraction", "unit-norm-block", "unit-norm-block-split"])
def test_wide_graded_grids_take_the_engine(doc):
    # grade blocks six wide take the engine like any graded input, and agree with the dense route
    req = cli.parse_request(json.dumps(doc))
    with one_block_route():
        want, _ = cli.run(req)
    with mock.patch.object(shifts, "dense_matrix", side_effect=AssertionError("dense matrix built")):
        got, _ = cli.run(req)
    if doc["command"] == "contraction":
        assert got["is_contraction"] == want["is_contraction"] == (doc["operator"]["grid"][0][0]["scale"] == 0.5)
        scale = want["threshold"] / 1e-8  # max(1, max |eigenvalue|) at the command's tolerance
        assert abs(got["min_eigenvalue"] - want["min_eigenvalue"]) <= 1e-13 * scale
        assert got["threshold"] == pytest.approx(want["threshold"], rel=1e-13)
    else:
        assert (got["reducible"], got["witness"]) == (want["reducible"], want["witness"])
