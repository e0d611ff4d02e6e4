"""Zhu's question on the family ``I = z^j A^2_alpha``: when are the restrictions of ``M_z`` similar?

``M_z`` restricted to ``z^j A^2_alpha`` (integer ``alpha >= 0``) is the weighted shift with
``w_n^2 = (n+j+1) / (n+j+alpha+2)``.  By Shields' criterion two such shifts are similar exactly when the
partial products ``prod_{l=i}^{m} a_l / b_l`` stay between positive constants, and the products have a
closed form through ``Gamma``: ``prod_{l<h} (l + c) = Gamma(h + c) / Gamma(c)``.

* Same ``alpha``, ``j < k``: every term ``1/2 log(1 + (alpha+1)(j-k) / ((l+j+alpha+2)(l+k+1)))`` is negative
  and increasing, so the sup up to ``h`` is the last term and the inf the whole product ``S(h)``, which
  converges: the shifts are similar.  ``j > k`` is the mirror image and ``j = k`` gives 1.
* ``alpha != beta``: the products grow like ``h^((beta-alpha)/2)``, so the shifts are not similar.  At the
  horizons ``2^20 .. 2^22`` the weakest extreme is 421.8, at ``(j, alpha, k, beta) = (0, 1, 3, 2)``, and 30 of
  the 96 ordered pairs stay below the default threshold ``1e3``: the test sets 100.
"""

import itertools

import mpmath
import pytest

from cdlab.rules import RationalRule
from cdlab.shifts import WeightSequence, shields_similarity

SAME_ALPHA = [(j, alpha, k) for alpha in range(3) for j in range(4) for k in range(4)]
CROSS_ALPHA = [(j, alpha, k, beta) for j, alpha, k, beta in itertools.product(range(4), range(3), range(4), range(3))
               if alpha != beta]


def restriction(j: int, alpha: int) -> WeightSequence:
    """``M_z`` on ``z^j A^2_alpha``: weights ``w_n^2 = (n+j+1) / (n+j+alpha+2)``."""
    return WeightSequence(tail=RationalRule((j + 1, 1), (j + alpha + 2, 1)), name=f"zhu:{j}:{alpha}")


def log_product(j: int, alpha: int, k: int, beta: int, h: int):
    """``S(h) = log prod_{l<h} a_l / b_l`` for ``a`` on ``z^j A^2_alpha`` and ``b`` on ``z^k A^2_beta`` (40 digits)."""
    lg = mpmath.loggamma
    with mpmath.workdps(40):
        log_a2 = lg(h + j + 1) - lg(j + 1) - lg(h + j + alpha + 2) + lg(j + alpha + 2)
        log_b2 = lg(h + k + 1) - lg(k + 1) - lg(h + k + beta + 2) + lg(k + beta + 2)
        return (log_a2 - log_b2) / 2


def last_term(j: int, alpha: int, k: int, h: int):
    """``log a_{h-1} - log b_{h-1}`` for one ``alpha`` (40 digits)."""
    n = mpmath.mpf(h - 1)
    with mpmath.workdps(40):
        return mpmath.log((n + j + 1) * (n + k + alpha + 2) / ((n + j + alpha + 2) * (n + k + 1))) / 2


@pytest.mark.parametrize("j, alpha, k", SAME_ALPHA, ids=lambda v: str(v))
def test_same_alpha_restrictions_are_similar(j, alpha, k):
    rep = shields_similarity(restriction(j, alpha), restriction(k, alpha), (2 ** 16, 2 ** 17, 2 ** 18))
    assert rep.verdict == "similar-consistent"
    for h, log_sup, log_inf in zip(rep.horizons, rep.log_sup_at_horizons, rep.log_inf_at_horizons):
        whole, last = log_product(j, alpha, k, alpha, h), last_term(j, alpha, k, h)
        if j == k:
            assert log_sup == log_inf == 0.0
            continue
        want_sup, want_inf = (last, whole) if j < k else (whole, last)
        assert abs(log_sup - want_sup) <= 1e-12 * abs(want_sup)
        assert abs(log_inf - want_inf) <= 1e-12 * abs(want_inf)


@pytest.mark.parametrize("j, alpha, k, beta", CROSS_ALPHA, ids=lambda v: str(v))
def test_cross_alpha_restrictions_are_not_similar(j, alpha, k, beta):
    rep = shields_similarity(restriction(j, alpha), restriction(k, beta), (2 ** 20, 2 ** 21, 2 ** 22),
                             divergence_threshold=100)
    assert rep.verdict == "not-similar"
    extreme = rep.log_sup_at_horizons[-1] if beta > alpha else -rep.log_inf_at_horizons[-1]
    assert extreme >= float(mpmath.log(421.8))
