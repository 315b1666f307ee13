"""High-precision reference shared by the chain and CLI tests."""

import pytest


def rect_chain_greens_50_digits(positions, lams, k, x, xp):
    """g(x, x') of a rectangular chain with walls lam_i at a_i, in 50-digit arithmetic.

    The kink recurrence of the wall-matched solutions: P = p left of the chain
    and Q = q right of it, with p = e^{kz} and q = e^{-kz} / (2k), each kinked
    by lam P(a) (q(a), -p(a)) at every wall it crosses; g = P(x<) Q(x>) / A_n.
    The calling test is skipped without mpmath.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    k, x, xp = mp.mpf(k), mp.mpf(x), mp.mpf(xp)
    p = lambda z: mp.exp(k * z)
    q = lambda z: mp.exp(-k * z) / (2 * k)

    def carry(walls, coef, sign):
        for a, lam in walls:  # the kink lam P(a) (q(a), -p(a)), taken back leftwards
            s = sign * lam * (coef[0] * p(a) + coef[1] * q(a))
            coef = (coef[0] + s * q(a), coef[1] - s * p(a))
        return coef

    walls = [(mp.mpf(a), mp.mpf(lam)) for a, lam in zip(positions, lams)]
    a_p, b_p = carry([w for w in walls if w[0] < x], (1, 0), 1)
    a_n = carry(walls, (1, 0), 1)[0]
    c_q, d_q = carry([w for w in reversed(walls) if w[0] >= xp], (0, 1), -1)
    return float((a_p * p(x) + b_p * q(x)) * (c_q * p(xp) + d_q * q(xp)) / a_n)
