"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np

from cdlab import blockops, cli, rkhs, shifts, similarity
from cdlab.matrix_core import psd_check
from oracles import (
    defect_complement,
    defect_operator_recursive,
    ex48_operator,
    ex48_schur_condition,
    schur_split_psd,
    with_prefix,
)


def _criterion(label: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"[{status}] {label}")
    assert not problems, f"{label}: " + "; ".join(problems)


def counterexample_shift() -> shifts.WeightSequence:
    return with_prefix(shifts.szego(2), [math.sqrt(13 / 25)])


def counterexample_block(N: int) -> blockops.BlockOperator:
    top = shifts.WeightSequence(tail=shifts.RationalRule((1, 1), (4, 1)))
    return blockops.BlockOperator(
        (
            (blockops.ShiftBlock(top), blockops.DiagonalBlock((math.sqrt(1 / 5),))),
            (None, blockops.ShiftBlock(counterexample_shift())),
        ),
        order=N,
    )


def test_criterion_01_curvature_closed_form():
    problems = []
    start = time.perf_counter()
    for n in (1, 2, 3, 5):
        K = rkhs.szego_power_coeffs(n)
        for r in np.arange(0.0, 0.95, 0.1):
            exact = -n / (1 - r * r) ** 2
            got = rkhs.curvature_series(K, r)
            if abs(got - exact) > 1e-10 * abs(exact):
                problems.append(f"series n={n} r={r:.1f}: {got} vs {exact}")
            if r >= 0.1:  # the difference stencil needs 0 < r - 2 step
                fd = rkhs.curvature_fd(K, r, 2e-4)
                if abs(fd - exact) > 1e-5 * abs(exact):
                    problems.append(f"fd n={n} r={r:.1f}: {fd} vs {exact}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        problems.append(f"runtime {elapsed:.2f}s >= 1s")
    _criterion("criterion 1: curvature closed form -n/(1-r^2)^2 (series 1e-10, fd 1e-5, < 1 s)", problems)


def test_criterion_02_power_one_two_quotient():
    problems = []
    K1, K2 = rkhs.szego_power_coeffs(1), rkhs.szego_power_coeffs(2)
    for r in np.arange(0.0, 0.95, 0.1):
        q = rkhs.curvature_series(K1, r) / rkhs.curvature_series(K2, r)
        if abs(q - 0.5) > 1e-10:
            problems.append(f"r={r:.1f}: quotient {q}")
    _criterion("criterion 2: curvature quotient of powers 1 and 2 equals 0.5 within 1e-10", problems)


def test_criterion_03_shields_divergence():
    problems = []
    start = time.perf_counter()
    horizons = (100, 10 ** 4, 10 ** 6)
    rep = shifts.shields_similarity(shifts.hardy(), shifts.bergman(), horizons)
    if rep.verdict != "not-similar":
        problems.append(f"verdict {rep.verdict}")
    r98 = float(np.prod(shifts.hardy().weights(99) / shifts.bergman().weights(99)))  # R(0, 98), telescoping
    if abs(r98 - 10.0) > 1e-9:
        problems.append(f"R(0,98) = {r98}")
    for h, sup in zip(horizons, rep.sup_at_horizons):
        expected = math.sqrt(h + 1)
        if abs(sup - expected) > 1e-9 * expected:
            problems.append(f"sup at {h}: {sup} vs sqrt({h}+1)")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        problems.append(f"runtime {elapsed:.2f}s >= 5s")
    _criterion("criterion 3: partial-ratio divergence for unweighted vs power-2 shift (< 5 s)", problems)


def test_criterion_04_counterexample_reproduction():
    problems = []
    N = 64
    T = blockops.assemble(counterexample_block(N))
    rep = shifts.defect_report(T, 2)
    if not rep.passed or min(rep.min_eigenvalues) < -1e-10:
        problems.append(f"assembled coupling fails order 2: {rep.min_eigenvalues}")

    solo = shifts.hypercontractivity_report(counterexample_shift(), 2, N)
    if solo.verdicts[1] or solo.min_eigenvalues[1] >= -1e-3:
        problems.append(f"standalone bottom shift not rejected: {solo.min_eigenvalues}")

    # an order-2 hypercontraction needs w_j^2 <= (1+j)/(2+j); the bumped weight breaks it at j = 0 alone
    j = np.arange(100)
    above = np.nonzero(counterexample_shift().weights(100) ** 2 > (1.0 + j) / (2.0 + j) + 1e-10)[0]
    if list(above) != [0]:
        problems.append(f"weight-ratio bound flags indices {above[:5]}, not index 0 alone")
    if not (13 / 25 > 1 / 2):
        problems.append("13/25 > 1/2 sanity")

    # upper-triangular factors of the order-2 defect: D2 = R* R with
    # R = [[a, b], [0, c]], a and c diagonal, b one subdiagonal
    D2 = shifts.defect_operator(T, 2)
    A11 = D2[:N, :N].real
    a = np.sqrt(np.diag(A11))
    expected_a = [1.0, math.sqrt(1 / 2), math.sqrt(3 / 10), math.sqrt(1 / 5)]
    if np.max(np.abs(a[:4] - expected_a)) > 1e-12:
        problems.append(f"a prefix {a[:4]}")
    X = D2[:N, N:].real
    beta = np.array([X[i + 1, i] / a[i + 1] for i in range(N - 1)])
    expected_beta = [math.sqrt(2 / 5), math.sqrt(13 / 375), 0.0]
    if np.max(np.abs(np.abs(beta[:3]) - expected_beta)) > 1e-12:
        problems.append(f"b prefix {beta[:3]}")
    delta = np.diag(D2[N:, N:].real)
    c_sq = delta - np.concatenate([beta ** 2, [0.0]])
    # the factorization equations force c = diag(sqrt(1/5), sqrt(11/375), sqrt(1/75), 0, ...)
    if abs(c_sq[1] - 11 / 375) > 1e-12:
        problems.append(f"c_1^2 = {c_sq[1]}")
    if np.min(c_sq) < -1e-12:
        problems.append(f"c^2 has a negative entry: {np.min(c_sq)}")
    bmat = np.zeros((N, N))
    bmat[np.arange(1, N), np.arange(N - 1)] = beta
    R = np.block([[np.diag(a), bmat], [np.zeros((N, N)), np.diag(np.sqrt(np.maximum(c_sq, 0.0)))]])
    if np.max(np.abs(R.T @ R - D2.real)) > 1e-12:
        problems.append(f"factor reconstruction error {np.max(np.abs(R.T @ R - D2.real)):.3e}")
    _criterion("criterion 4: coupled counterexample (order-2 pass, solo fail, ratio flag, factors 1e-12)", problems)


def test_criterion_05_defect_projection():
    problems = []
    N = 48
    for n in (1, 2, 3):
        T = shifts.materialize(shifts.szego(n), N)
        D = shifts.defect_operator(T, n)
        W = N - n
        E = np.zeros((W, W))
        E[0, 0] = 1.0
        err = np.max(np.abs(D[:W, :W] - E))
        if err > 1e-12:
            problems.append(f"n={n}: defect differs from seed projection by {err:.3e}")
    _criterion("criterion 5: order-n defect of the order-n model shift is e0 (x) e0 within 1e-12", problems)


def test_criterion_06_diagonal_coupling_equivalence():
    problems = []
    start = time.perf_counter()
    rng = np.random.default_rng(20260809)
    N = 32
    disagreements = 0
    schur_disagreements = 0
    schur_checked = 0
    trues = falses = 0
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        a = rng.uniform(0.05, 0.95, N - 1)
        b = rng.uniform(0.05, 0.95, N - 1)
        bounds = np.empty(k)
        bounds[0] = 1 - a[0] ** 2
        for i in range(1, k):
            bounds[i] = (1 - a[i] ** 2) * (1 - b[i - 1] ** 2)
        offs = rng.uniform(0.05, 0.5, k)
        up = rng.random(k) < 0.5
        d = np.sqrt(bounds) * np.where(up, 1 + offs, 1 - offs)
        if np.any(np.abs(d ** 2 - bounds) < 1e-8):  # boundary band excluded
            continue
        closed = blockops.ex48_closed_form(a, b, d)
        B = ex48_operator(a, b, d, N)
        oracle = blockops.contraction_check(blockops.assemble(B), 1e-10).is_psd
        if closed != oracle:
            disagreements += 1
        trues += closed
        falses += not closed
        T1 = shifts.materialize(shifts.WeightSequence(prefix=tuple(a)), N)
        cond = np.linalg.cond(np.eye(N) - T1.matrix.conj().T @ T1.matrix)
        if cond < 1e6:
            schur_checked += 1
            T2 = shifts.materialize(shifts.WeightSequence(prefix=tuple(b)), N)
            T12 = shifts.TruncatedOperator(N, blockops.DiagonalBlock(tuple(d)).entries(N))
            schur = ex48_schur_condition(T1, T12, T2, 1e-10).is_psd
            if schur != closed:
                schur_disagreements += 1
    if disagreements:
        problems.append(f"{disagreements} closed-form/oracle disagreements")
    if schur_disagreements:
        problems.append(f"{schur_disagreements} Schur-condition disagreements over {schur_checked}")
    if trues < 50 or falses < 50:
        problems.append(f"generator imbalance: {trues} true / {falses} false")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    _criterion("criterion 6: closed-form coupling criterion matches the eigenvalue oracle (1000 seeded, < 60 s)", problems)


def test_criterion_07_schur_split_equivalence():
    problems = []
    rng = np.random.default_rng(777)
    checked = psd_count = 0
    disagreements = 0
    while checked < 1000:
        n = int(rng.integers(2, 13))
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (G + G.conj().T) / 2
        kind = rng.random()
        if kind < 0.4:
            A = G.conj().T @ G + 0.1 * np.eye(n)  # clearly PSD
            A = (A + A.conj().T) / 2
        elif kind < 0.6:
            A = G.conj().T @ G - 0.5 * np.eye(n)  # mixed signature
            A = (A + A.conj().T) / 2
        split = int(rng.integers(1, n))
        if np.linalg.cond(A[:split, :split]) >= 1e8:
            continue
        whole = psd_check(A).is_psd
        v11, vs = schur_split_psd(A, split)
        if whole != (v11.is_psd and vs.is_psd):
            disagreements += 1
        psd_count += whole
        checked += 1
    if disagreements:
        problems.append(f"{disagreements} disagreements")
    if psd_count < 100 or psd_count > 900:
        problems.append(f"generator imbalance: {psd_count} PSD of 1000")
    _criterion("criterion 7: leading-block/Schur-complement split matches direct PSD check (1000 seeded)", problems)


def test_criterion_08_commutator_pinch():
    problems = []
    radii = np.arange(0.1, 0.95, 0.1)
    for x in ([1.0], [0.5, 0.25]):
        rep = similarity.commutator_example(x, N=192, radii=radii)
        if not rep.closed_form_check:
            problems.append(f"X={x}: frame/closed-form relative error {rep.max_rel_err:.3e}")
        if not rep.pinch_ok:
            problems.append(f"X={x}: ratio escapes [1, 1 + |X|^2]")
        witness = rep.profile.witness
        if witness.max_residual >= 1e-4:
            problems.append(f"X={x}: witness residual {witness.max_residual:.3e}")
    _criterion("criterion 8: commutator coupling (frame det 1e-8, Cauchy-Schwarz pinch, witness 1e-4)", problems)


def test_criterion_09_complement_sandwich():
    problems = []
    rng = np.random.default_rng(4242)
    N = 40
    cases = [(n, shifts.szego(n)) for n in (1, 2, 3, 4)]
    for i in range(50):
        n = int(rng.integers(1, 5))
        m = n + rng.uniform(0.0, 4.0)
        scale = rng.uniform(0.9, 1.0)
        w = shifts.WeightSequence(
            prefix=tuple(scale * math.sqrt((j + 1) / (m + j)) for j in range(N - 1))
        )
        cases.append((n, w))
    for n, w in cases:
        rep = shifts.hypercontractivity_report(w, n, N)
        if not rep.passed:
            problems.append(f"instance at order {n} unexpectedly fails hypercontractivity")
            continue
        T = shifts.materialize(w, N)
        S = defect_complement(T, n)
        W = N - n
        eigs = np.linalg.eigvalsh((S[:W, :W] + S[:W, :W].conj().T) / 2)
        if eigs[0] < -1e-10 or eigs[-1] > 1 + 1e-10:
            problems.append(f"order {n}: complement eigenvalues [{eigs[0]:.2e}, {eigs[-1]:.6f}]")
    _criterion("criterion 9: 0 <= I - D_n <= I for model shifts and 50 hypercontractive perturbations", problems)


def test_criterion_10_recursion_and_binomial_identity():
    problems = []
    rng = np.random.default_rng(1234)
    for _ in range(200):
        n = int(rng.integers(8, 24))
        k = int(rng.integers(1, 6))
        w = shifts.WeightSequence(prefix=tuple(rng.uniform(0.2, 1.2, n - 1)))
        T = shifts.materialize(w, n)
        err = np.max(np.abs(shifts.defect_operator(T, k) - defect_operator_recursive(T, k)))
        if err > 1e-12:
            problems.append(f"recursion mismatch {err:.3e} at N={n}, k={k}")
            break
    for n in range(2, 41):
        for j in range(1, n):
            if math.comb(n, j) != sum(math.comb(l, j - 1) for l in range(j - 1, n)):
                problems.append(f"binomial identity fails at n={n}, j={j}")
    _criterion("criterion 10: defect recursion (1e-12, 200 shifts) and exact binomial identity (n <= 40)", problems)


def test_criterion_11_deterministic_reports():
    problems = []
    requests = [
        {"command": "curvature", "kernel": {"preset": "szego", "power": 2},
         "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12}},
        {"command": "hypercontract", "shift": {"preset": "szego", "power": 2}, "order": 2, "N": 64},
        {"command": "shields", "a": {"preset": "hardy"}, "b": {"preset": "szego", "power": 2}, "horizon": 256},
        {"command": "contraction", "operator": {"grid": [
            [{"kind": "shift", "weights": {"preset": "szego", "power": 2}}, {"kind": "diagonal", "values": [0.2]}],
            [None, {"kind": "shift", "weights": {"preset": "hardy"}, "scale": 0.5}]], "N": 16}},
        {"command": "reduce", "detector": "unit-norm-block", "operator": {"grid": [
            [{"kind": "shift", "weights": {"preset": "hardy"}}, None],
            [None, {"kind": "shift", "weights": {"preset": "hardy"}, "scale": 0.5}]], "N": 16}},
        {"command": "simdiag", "source": {"kind": "kernels", "kernels": [{"preset": "szego", "power": 1}]},
         "kernel": {"preset": "szego", "power": 1}, "multiplicity": 1,
         "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12}},
        {"command": "ex-commutator", "x_diag": [0.5], "N": 160},
    ]
    for payload in requests:
        req = cli.parse_request(json.dumps(payload))
        rep1, csv1 = cli.run(req)
        rep2, csv2 = cli.run(req)
        if cli.render_report(rep1) != cli.render_report(rep2):
            problems.append(f"{payload['command']}: JSON differs between runs")
        if csv1 != csv2:
            problems.append(f"{payload['command']}: CSV differs between runs")
    _criterion("criterion 11: the same request produces byte-identical reports", problems)
