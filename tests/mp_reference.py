"""High-precision reference shared by the chain and CLI tests."""

import pytest


def chain_greens_50_digits(pair, positions, lams, k, x, xp):
    """g(x, x') of a chain with walls lam_i at a_i under a unit-weight kernel, in 50 digits.

    `pair(mp, k)` returns the kernel's factor pair (p, q) as functions of z
    in the arithmetic of `mp`, with Wronskian p q' - p' q = -1.  The kink
    recurrence of the wall-matched solutions: P = p left of the chain and
    Q = q right of it, each kinked by lam P(a) (q(a), -p(a)) at every wall it
    crosses; g = P(x<) Q(x>) / A_n.  The calling test is skipped without
    mpmath.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp.clone()
    mp.dps = 50
    k, x, xp = mp.mpf(k), mp.mpf(min(x, xp)), mp.mpf(max(x, xp))
    p, q = pair(mp, k)

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


def rect_chain_greens_50_digits(positions, lams, k, x, xp):
    """The rectangular instance: p = e^{kz}, q = e^{-kz} / (2k)."""
    pair = lambda mp, k: (lambda z: mp.exp(k * z), lambda z: mp.exp(-k * z) / (2 * k))
    return chain_greens_50_digits(pair, positions, lams, k, x, xp)
