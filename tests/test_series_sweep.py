"""One chunked sweep per kernel against one-row sums.

``rkhs._swept_sums`` sums many rows ``(t, max_order)`` of one kernel in a
single pass over the coefficient chunks.  It is the route of ``rkhs._series_sums``
for tails with a non-constant denominator, finite kernels and rows the closed
form does not certify, and the closed form's oracle, so it is called here by
name on every kind of kernel.  Every row must come out exactly as it does
alone: same chunks, same floats, same certificate, for prefix plus
rational-tail kernels, finite kernels, ``t = 0`` and repeated or unsorted
rows with mixed orders.
"""

import json

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdlab import cli, rkhs
from cdlab.errors import TruncationError
from cdlab.rkhs import DiagonalKernel, szego_power_coeffs
from cdlab.rules import RationalRule, _degree
from oracles import scalar_series_sums

SEEDS = st.integers(min_value=0, max_value=2 ** 31 - 1)


def random_kernel(rng) -> DiagonalKernel:
    """A finite kernel, a szego power or a rational tail, behind a random positive prefix."""
    prefix = tuple(rng.uniform(0.2, 3.0, rng.integers(0, 4)))
    kind = rng.integers(3)
    if kind == 0:
        return DiagonalKernel(prefix=prefix + tuple(rng.uniform(0.2, 3.0, rng.choice([1, 5, 2500]))))
    if kind == 1:
        return DiagonalKernel(prefix=prefix, tail=szego_power_coeffs(int(rng.integers(1, 5))).tail)
    p = tuple(int(c) for c in rng.integers(1, 9, rng.integers(1, 4)))
    q = tuple(int(c) for c in rng.integers(1, 9, rng.integers(1, 3)))
    return DiagonalKernel(prefix=prefix, tail=RationalRule(p, q))


def random_rows(rng) -> tuple[np.ndarray, np.ndarray]:
    """Unsorted ``t`` values with zeros and repeats, each with an order 0-2."""
    t = [0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 0.999)) for _ in range(rng.integers(1, 6))]
    t += [t[i] for i in rng.integers(0, len(t), rng.integers(0, 3))]
    t = np.array(t)[rng.permutation(len(t))]
    return t, rng.integers(0, 3, len(t))


@given(SEEDS)
@settings(max_examples=80, deadline=None)
def test_rows_match_one_row_sums_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    K = random_kernel(rng)
    t, orders = random_rows(rng)
    sums = rkhs._swept_sums(K, t, orders)
    assert sums.shape == (len(t), orders.max() + 1)
    if K.tail is None or _degree(K.tail.q) > 0:  # no closed form: ``_series_sums`` is the sweep
        assert rkhs._series_sums(K, t, orders).tobytes() == sums.tobytes()
    for i, (x, m) in enumerate(zip(t, orders)):
        alone = rkhs._swept_sums(K, np.array([x]), np.array([m]))[0]
        assert sums[i, : m + 1].tobytes() == alone.tobytes()
        assert np.all(np.isnan(sums[i, m + 1 :]))
        assert alone.tobytes() == scalar_series_sums(K, float(x), int(m)).tobytes()


@pytest.mark.parametrize("t", [1e-3, 0.09, 0.5])
@pytest.mark.parametrize("n0", [0, rkhs._CHUNK], ids=["first-chunk", "second-chunk"])
def test_power_table_is_the_plain_power_table(t, n0):
    # entries where e log2 t < -1100 are set to 0 without a pow call; pow returns exactly 0 there
    e = np.maximum(np.arange(n0 - 2, n0 + rkhs._CHUNK, dtype=float), 0.0)
    rows = np.array([t, 0.0, t, 1e-300])
    got = rkhs._power_table(rows, e)
    assert got.tobytes() == (rows[:, None] ** e).tobytes()
    assert got[1].tolist() == (e == 0).tolist() and not got[0, -1]  # 0^0 = 1 keeps its pow


def test_truncation_names_the_first_row_that_did_not_certify(monkeypatch):
    # t = 0.25 certifies in the first chunk; 0.9999 needs far more than two
    monkeypatch.setattr(rkhs, "_MAX_TERMS", 2 * rkhs._CHUNK)
    with pytest.raises(TruncationError, match=r"at t=0\.9999$"):
        rkhs._swept_sums(szego_power_coeffs(2), np.array([0.25, 0.9999, 0.99995]), np.array([2, 0, 2]))


def test_each_row_is_certified_with_its_own_t_and_order(monkeypatch):
    bound, first = rkhs._term_ratio_bound, []

    def recording(K, t, n_last, max_order):
        rho = bound(K, t, n_last, max_order)
        first.append(np.broadcast_to(rho, np.shape(t)).copy())
        return rho

    monkeypatch.setattr(rkhs, "_term_ratio_bound", recording)
    K, t, orders = szego_power_coeffs(3), np.array([0.9, 0.9, 0.5]), np.array([0, 2, 1])
    rkhs._swept_sums(K, t, orders)
    together = first[0]
    alone = []
    for x, m in zip(t, orders):
        first.clear()
        rkhs._swept_sums(K, np.array([x]), np.array([m]))
        alone.append(first[0])
    assert together.tobytes() == np.array(alone).tobytes()


def test_tiny_radius_curvatures_against_mpmath():
    # b_n = (n+1)^2/(n+2) has no closed form; at r = 1e-100 every t^m with m >= 2 underflows to 0, so terms
    # divided by t^m were NaN and the sweep ran to its term limit (exit 4) instead of certifying in one chunk
    request = {"command": "curvature", "kernel": {"tail": {"p": [1, 2, 1], "q": [2, 1]}},
               "radii": {"kind": "explicit", "values": [1e-100, 0.5]}}
    report, csv_text = cli.run(cli.parse_request(json.dumps(request)))
    got = [float(row.split(",")[1]) for row in csv_text.splitlines()[1:]]
    with mpmath.workdps(40):
        for r, value in zip(request["radii"]["values"], got):
            t = mpmath.mpf(r) ** 2
            g = [mpmath.fsum((n + 1) ** 2 / mpmath.mpf(n + 2) * mpmath.ff(n, m) * t ** (n - m) for n in range(m, 400))
                 for m in range(3)]
            exact = -(t * (g[2] / g[0] - (g[1] / g[0]) ** 2) + g[1] / g[0])
            assert abs(value - exact) <= 1e-14 * abs(exact), r
    assert report["max_value"] == got[0] == pytest.approx(-8 / 3, rel=1e-15)
