"""Array paths of the Bessel family in :mod:`greenchain.specfun`.

:func:`~greenchain.specfun.bessel_jy`, :func:`~greenchain.specfun.sph_modified`
and :func:`~greenchain.specfun.sph_ordinary` hand an array of x to the
functions here, and a long cylindrical chain (``greens.cyl_factors``) calls
:func:`_ik_array` for I_m and K_m together; the scalar
:func:`~greenchain.specfun.bessel_i` and :func:`~greenchain.specfun.bessel_k`
take one x.  Each element is bitwise the scalar value: every series and
recurrence runs the scalar one operation for operation and stops where the
scalar loop stops, with ``math`` functions per element where numpy's are
not bitwise the same, and each element is NaN where the scalar call
raises.  The ascending series of I and i_l and the Kummer series over an
array of points run as the rows of one blocked Kahan sum
(:func:`_kahan_blocks`), so an array call costs a number of numpy
operations that grows with the longest series, not with the number of
elements.  J and Y below the Hankel seam, and J_m at x <= m, take one
Miller pass over the array (:func:`_jy_miller_array`), each element joining
it at its own start.  K_0 and K_1 below x = 15 take the trapezoid nodes of
the scalar table in one :func:`_k01_cosh_array` call, and the
large-argument sums of K and of the Hankel P and Q run over the scalar row
tables in one fold (:func:`_asymptotic01_array`), every term at once.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import (_COSH_CUTOFF, _COSH_NODES, _COSH_STEP, _EULER_GAMMA, _HANKEL_ROWS,
                      _J_RESCALE, _JY_HANKEL_MIN, _JY_TINY, _K_ASYMPTOTIC_MIN, _K_ROWS, _K_TINY,
                      _LN_2, _LOG_MAX, _LOG_TINY, _MAX_TERMS, _MILLER_SEED, _OVERFLOW_GUARD,
                      _REL_EPS, _SPH_RESCALE, _elementwise, _j_miller_start, _miller_rows,
                      _sph_miller_start, _y01)


def _kahan_blocks(ratio, first: np.ndarray, total: np.ndarray, n_steps: int,
                  pending: np.ndarray | None = None, with_peak: bool = False,
                  first_block: int = 16):
    """Compensated sums of many series at once, each stopped where its scalar loop stops.

    Element i starts from the term ``first[i]`` and the partial sum
    ``total[i]``.  Step s (0 <= s < n_steps) multiplies the term by its
    ratio, ``ratio(s0, s1, cols)[s - s0]`` for the elements `cols`, and adds
    it with Kahan compensation.  An element stops after three consecutive
    steps whose |term| is <= 1e-16 |sum|, and records that sum and, with
    `with_peak`, the largest |term| so far.  The steps run in blocks: one
    cumulative product gives a block's terms, in the order of the scalar
    ``term *=``, and only the compensated additions loop step by step; the
    first block has `first_block` steps.  Elements not `pending` are
    skipped; one that never stops is NaN.  Returns the sums, or (sums, peaks).
    """
    sums = np.full(first.size, np.nan)
    peaks = np.full(first.size, np.nan) if with_peak else None
    if pending is None or pending.all():
        cols, term = np.arange(first.size), first
    else:
        cols = np.flatnonzero(pending)
        term, total = first[cols], total[cols]
    comp = np.zeros(cols.size)
    peak = np.abs(term)
    small = np.zeros((2, cols.size), dtype=bool)  # the last two steps were small
    s, block = 0, first_block
    while cols.size and s < n_steps:
        s1 = min(s + block, n_steps)
        block = min(64, max(16, s1 // 2))
        ext = np.empty((s1 - s + 1, cols.size))
        ext[0] = term
        ext[1:] = ratio(s, s1, cols)
        terms = np.multiply.accumulate(ext, axis=0, out=ext)[1:]
        term = terms[-1].copy()
        if with_peak:
            top = np.maximum.accumulate(np.vstack([peak, np.abs(terms)]), axis=0)[1:]
            peak = top[-1]
        c = terms  # the added terms, in place: the block's buffers are reused below
        run = np.empty(c.shape)
        y = np.empty(cols.size)
        for c_j, run_j in zip(c, run):
            np.subtract(c_j, comp, out=y)
            np.add(total, y, out=run_j)
            comp = run_j - total
            comp -= y
            total = run_j
        total = total.copy()
        flags = np.empty((s1 - s + 2, cols.size), dtype=bool)
        flags[:2] = small
        np.less_equal(np.abs(c, out=c), _REL_EPS * np.abs(run), out=flags[2:])
        stop = flags[2:] & flags[1:-1]
        stop &= flags[:-2]
        small = flags[-2:]
        hit = stop.any(axis=0)
        n_hit = np.count_nonzero(hit)
        if n_hit:
            at, where = stop.argmax(axis=0)[hit], np.flatnonzero(hit)
            sums[cols[hit]] = run[at, where]
            if with_peak:
                peaks[cols[hit]] = top[at, where]
            if n_hit == cols.size:
                cols = cols[:0]
                break
            keep = ~hit
            cols, term, total, comp, peak = (arr[keep] for arr in (cols, term, total, comp, peak))
            small = small[:, keep]
        s = s1
    return (sums, peaks) if with_peak else sums


def _first_block(q_max: float, m: float, stride: int) -> int:
    """Steps the series of ratio q_max / (k (m + stride k)) takes to its run of three
    small terms, summed plainly: the first block of its blocked Kahan sum."""
    steps, t, tot = 0, 1.0, 1.0
    while steps < 64 and abs(t) > _REL_EPS * tot:
        steps += 1
        t *= q_max / (steps * (m + stride * steps))
        tot += t
    return steps + 3


# cosh t at node 0 (t = 0) and at the nodes of _COSH_NODES, as one float table
_COSH_TABLE = np.array([1.0] + _COSH_NODES)


def _k01_cosh_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_k01_cosh_integral` over an array of x in the trapezoid band.

    The nodes are the scalar loop's, from the same table, and every
    exp(-x cosh t) is taken in one elementwise call, shared by K_0 and K_1.
    A node past an element's cutoff adds 0.0, which leaves the running sum
    bitwise unchanged, so each sum is accumulated in the scalar order.
    """
    top = (1.0 + _COSH_CUTOFF / x)[:, None]  # cosh t at each element's cutoff
    cosh_t = _COSH_TABLE[:np.count_nonzero(_COSH_TABLE < top.max())]
    live = cosh_t < top
    e = np.zeros(live.shape)
    e[live] = _elementwise(math.exp, -(x[:, None] * cosh_t)[live])
    terms = np.stack([e, e * cosh_t])  # cosh(0 t) = 1 for K_0, cosh(t) for K_1
    terms[:, :, 0] = 0.5 * e[:, 0]  # t = 0 carries half weight
    k0, k1 = np.add.accumulate(terms, axis=2)[:, :, -1]
    return _COSH_STEP * k0, _COSH_STEP * k1


# Rounding slack of the running bounds of the J Miller array pass: each bound step rounds
# twice, as does each step of the recurrence it bounds, and (1 + 2^-53)^4 < 1 + 1e-15.
_BOUND_SLACK = 1.0 + 1e-15

# Elements per pass of _asymptotic01_array: its tables take about 3 kB per element, so
# one pass over a 66,698-point scan window would peak near 220 MiB (17 MiB in passes).
_FOLD_PASS = 4096

# _K_ROWS and _HANKEL_ROWS as float tables, built once rather than on every fold.
_K_TABLE, _HANKEL_TABLE = (np.array(rows, dtype=float) for rows in (_K_ROWS, _HANKEL_ROWS))


def _asymptotic01_array(x: np.ndarray, rows, rel: float, tol: float) -> tuple:
    """:func:`_asymptotic01` over an array of x: (P_0, Q_0, P_4, Q_4), every k at once.

    The terms are one cumulative product, and P and Q cumulative sums over
    their own terms, all in the scalar order.  Each element and mu keeps its
    terms before the one at which the scalar loop breaks, and through the
    first one at most tol.  More than _FOLD_PASS elements run in passes.
    """
    table = np.asarray(rows, dtype=float)
    if x.size > _FOLD_PASS:
        parts = [_asymptotic01_array(xc, table, rel, tol)
                 for xc in np.array_split(x, -(-x.size // _FOLD_PASS))]
        return tuple(np.concatenate(part) for part in zip(*parts))
    # the loop breaks where the terms grow again, from k near 2x, or where they fall
    # below 1e-16, which they do before that once x > 18.5
    for n_k in (min(len(table), int(2.0 * min(float(x.max()), 19.0)) + 3), len(table)):
        odd = table[:n_k, 3] > 0.0
        n_p = np.concatenate([[0], np.cumsum(~odd)])  # P terms among the first j
        terms = np.multiply.accumulate(table[:n_k, :2, None] / (table[:n_k, 2, None, None] * x))
        p = np.add.accumulate(np.concatenate([np.ones((1, 2, x.size)), terms[~odd]]))
        q = np.add.accumulate(np.concatenate([np.zeros((1, 2, x.size)), terms[odd]]))
        size = np.abs(terms)
        end = np.zeros((n_k + 1, 2, x.size), dtype=bool)  # end[j]: the sums keep j terms
        np.greater_equal(size[0], 1.0, out=end[0])  # the first term against prev = 1
        np.greater_equal(size[1:], size[:-1], out=end[1:-1])
        end[:-1] |= size <= rel * np.abs(p[n_p[:-1]])
        end[1:] |= size <= tol
        if end.any(axis=0).all() or n_k == len(table):
            break
    end[-1] = True
    j = end.argmax(axis=0)
    (p0, p4), (q0, q4) = (np.take_along_axis(sums, at[None], 0)[0]
                          for sums, at in ((p, n_p[j]), (q, j - n_p[j])))
    return p0, q0, p4, q4


def _ik_array(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I_m, K_m) over an array of x: each bitwise the scalar value, NaN where it raises.

    I_m is the blocked Kahan sum of the scalar series, finished as :func:`bessel_i` finishes it.
    K_0 and K_1 take their leading terms below _K_TINY, one :func:`_k01_cosh_array`
    call below 15 and one :func:`_asymptotic01_array` call from there on.
    """
    shape = x.shape
    x = x.astype(float).ravel()
    i_m, k_m = np.full(x.size, np.nan), np.full(x.size, np.nan)
    ok = (0.5 * x > 0.0) & (x < math.inf)  # else both scalar calls raise
    xv = x[ok]
    with np.errstate(all="ignore"):
        lh = _elementwise(math.log, 0.5 * xv)
        g = xv <= _OVERFLOW_GUARD  # past it the scalar bessel_i raises
        q, log_t0 = 0.25 * xv[g] * xv[g], m * lh[g] - math.lgamma(m + 1.0)

        def ratio(s0, s1, cols):  # the scalar denominator k (m + k)
            k = np.arange(s0 + 1, s1 + 1, dtype=float)[:, None]
            return q[cols] / (k * (m + k))

        scaled = _kahan_blocks(ratio, np.ones(q.size), np.ones(q.size), _MAX_TERMS - 1,
                               first_block=_first_block(q.max(initial=0.0), m, 1))
        log_val = log_t0 + _elementwise(math.log, scaled)
        iv = np.full(xv.size, np.nan)
        iv[g] = np.where(log_t0 + q / (m + 1.0) < _LOG_TINY, 0.0,  # the whole sum underflows
                         _elementwise(math.exp, np.where(log_val > _LOG_MAX, np.nan, log_val)))
        tiny, high = xv < _K_TINY, xv >= _K_ASYMPTOTIC_MIN
        mid = ~(tiny | high)
        k0, k1 = -(lh + _EULER_GAMMA), 1.0 / xv  # the leading terms, kept where tiny
        if mid.any():
            k0[mid], k1[mid] = _k01_cosh_array(xv[mid])
        if high.any():
            xh = xv[high]
            p0, _, p4, _ = _asymptotic01_array(xh, _K_TABLE, _REL_EPS, 0.0)
            pref = np.sqrt(0.5 * math.pi / xh) * _elementwise(math.exp, -xh)
            k0[high], k1[high] = pref * p0, pref * p4
        prev, cur = k0, k1
        for j in range(1, m):
            prev, cur = cur, prev + (2.0 * j / xv) * cur
        kv = cur if m else prev
    i_m[ok] = iv
    k_m[ok] = np.where(np.isinf(kv), np.nan, kv)
    return i_m.reshape(shape), k_m.reshape(shape)


def _jy_miller_array(m: int, x: np.ndarray, lh: np.ndarray, with_y: bool) -> np.ndarray:
    """:func:`_jy_miller` over an array of x (lh = log(x/2)): the rows J_m, J_0, J_1, S_0
    and S_1, each element operation for operation the scalar pass, NaN where it raises.

    The pass runs once, down from the highest start.  Each element joins it
    at its own start; until then its pair is (0, 0), which the recurrence
    keeps at 0 and which adds 0.0 to every sum.  Without `with_y` the
    Neumann sums are not taken and stay 0.
    """
    out = np.zeros((5, x.size))
    under = m * lh - math.lgamma(m + 1.0) < _LOG_TINY
    tiny = x < _JY_TINY
    lead = tiny & ~under
    if lead.any():
        out[0, lead] = _elementwise(lambda t: t ** m, 0.5 * x[lead]) / math.factorial(m)
    out[1, tiny], out[2, tiny] = 1.0, 0.5 * x[tiny]
    x, under = x[~tiny], under[~tiny]
    if not x.size:
        return out
    top = _j_miller_start(np.where(under, x, np.maximum(float(m), x))) // 2 - 1  # first rows
    order = np.argsort(-top, kind="stable")  # the pass takes the elements in order of joining
    x, x_min = x[order], x.min()
    rows = list(_miller_rows(2 * int(top[order[0]]) + 2))
    joined = np.searchsorted(-top[order], [-row[0] for row in rows], side="right").tolist()
    km, odd = divmod(m, 2)
    big, shrink = _J_RESCALE, 1.0 / _J_RESCALE
    fp, fc, jm, norm, s0, s1 = np.zeros((6, x.size))
    n = 0
    bp = bc = 0.0  # bounds on |fp| and |fc|: only past big can an element need its rescale
    for (k, c1, c0, w1, w0), n_k in zip(rows, joined):
        if n_k > n:
            fc[n:n_k], n, bc = _MILLER_SEED, n_k, max(bc, _MILLER_SEED)
        fp, fc = fc, (c1 / x) * fc - fp  # f_{2k+1}
        fp, fc = fc, (c0 / x) * fc - fp  # f_{2k}
        bp, bc = bc, (c1 / x_min * bc + bp) * _BOUND_SLACK
        bp, bc = bc, (c0 / x_min * bc + bp) * _BOUND_SLACK
        if bc > big:
            over = np.abs(fc) > big
            if over.any():
                fp, fc, jm, norm, s0, s1 = (np.where(over, f * shrink, f)
                                            for f in (fp, fc, jm, norm, s0, s1))
            bp, bc = np.abs(fp).max(), np.abs(fc).max()
        if k == km:
            jm = (fp if odd else fc).copy()  # a later join writes into fc
        norm += fc
        if with_y:
            s0 += w0 * fc
            s1 += w1 * fp
    fp, fc = fc, (4.0 / x) * fc - fp  # f_1
    fp, fc = fc, (2.0 / x) * fc - fp  # f_0
    if m < 2:
        jm = fp if m else fc
    norm = 2.0 * norm + fc
    vals = np.empty((5, x.size))
    vals[:, order] = np.stack([jm, fc, fp, s0, s1]) / norm
    vals[:, order[(norm == 0.0) | np.isinf(norm)]] = np.nan
    out[:, ~tiny] = vals
    return out


def _jy_array(m: int, x: np.ndarray, with_y: bool):
    """J_m over an array of x, or with `with_y` the pair (J_m, Y_m) of arrays.

    Each element is bitwise the scalar value, and NaN where the scalar call
    raises.  Below the Hankel seam, and for J_m wherever x <= m, the Miller
    pass runs once over the array (:func:`_jy_miller_array`, the Neumann
    sums only `with_y`); from the seam on, the Hankel sums run in one fold.
    """
    shape = x.shape
    x = x.astype(float).ravel()
    j = np.full(x.size, np.nan)
    y0, y1 = np.full(x.size, np.nan), np.full(x.size, np.nan)
    ok = (0.5 * x > 0.0) & (x < math.inf)  # else the scalar raises, log(x/2) included
    hankel = ok & (x >= _JY_HANKEL_MIN)
    miller = ok & ~(hankel & (x > m))
    with np.errstate(all="ignore"):
        xh = x[hankel]
        if xh.size:
            p0, q0, p1, q1 = _asymptotic01_array(xh, _HANKEL_TABLE, 0.0, _REL_EPS)
            c = np.sqrt(2.0 / (math.pi * xh))
            chi0, chi1 = xh - 0.25 * math.pi, xh - 0.75 * math.pi
            cos0, sin0, cos1, sin1 = (_elementwise(fn, chi) for chi in (chi0, chi1)
                                      for fn in (math.cos, math.sin))
            jp, jc = c * (p0 * cos0 - q0 * sin0), c * (p1 * cos1 - q1 * sin1)
            y0[hankel], y1[hankel] = c * (p0 * sin0 + q0 * cos0), c * (p1 * sin1 + q1 * cos1)
            for jj in range(1, m):
                jp, jc = jc, (2.0 * jj / xh) * jc - jp
            j[hankel] = jc if m else jp
        xm = x[miller]
        if xm.size:
            lh = _elementwise(math.log, 0.5 * xm)
            j[miller], j0, j1, s0, s1 = _jy_miller_array(m, xm, lh, with_y)
            if with_y:
                low = ~hankel[miller]
                y0[miller & ~hankel], y1[miller & ~hankel] = _y01(
                    xm[low], lh[low], j0[low], j1[low], s0[low], s1[low])
        if not with_y:
            return j.reshape(shape)
        yp, yc = y0, y1
        overflow = np.isinf(yc) if m else np.zeros(x.size, dtype=bool)
        for jj in range(1, m):
            yp, yc = yc, (2.0 * jj / x) * yc - yp
            overflow |= np.isinf(yc)
        y = yc if m else yp
    j[overflow] = np.nan
    y[np.isnan(j)] = np.nan  # the scalar call raises for J or for Y
    return j.reshape(shape), y.reshape(shape)


def _sph_modified_array(l: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sph_modified` over an array of x, operation for operation; NaN where it raises."""
    shape = x.shape
    x = x.astype(float).ravel()
    out = np.full((2, x.size), np.nan)
    ok = (x > 0.0) & (x <= _OVERFLOW_GUARD)
    xv = x[ok]
    with np.errstate(all="ignore"):
        log_t0 = l * _elementwise(math.log, xv) - (
            math.lgamma(2.0 * l + 2.0) - l * _LN_2 - math.lgamma(l + 1.0))
        half_q = 0.5 * xv * xv
        under = log_t0 + half_q / (2.0 * l + 3.0) < _LOG_TINY
        m = 2.0 * l + 1.0  # the scalar denominator k (2l + 2k + 1), an exact integer

        def ratio(s0, s1, cols):
            k = np.arange(s0 + 1, s1 + 1, dtype=float)[:, None]
            return half_q[cols] / (k * (m + 2.0 * k))

        scaled = _kahan_blocks(ratio, np.ones(xv.size), np.ones(xv.size), _MAX_TERMS - 1,
                               pending=~under,
                               first_block=_first_block(half_q.max(initial=0.0), m, 2))
        log_val = log_t0 + _elementwise(math.log, np.where(under, 1.0, scaled))
        il = np.where(under, 0.0, _elementwise(
            math.exp, np.where(log_val > _LOG_MAX, np.nan, log_val)))
        term, total = np.ones(xv.size), np.ones(xv.size)
        for j in range(1, l + 1):
            term *= (l + j) * (l - j + 1.0) / (j * 2.0 * xv)
            total += term
        kl = 0.5 * math.pi / xv * _elementwise(math.exp, -xv) * total
    out[0, ok] = il
    out[1, ok] = kl
    out[:, np.isnan(out).any(axis=0) | np.isinf(out[1])] = np.nan
    return out[0].reshape(shape), out[1].reshape(shape)


def _sph_jy_array(l: int, x: np.ndarray, with_y: bool) -> tuple[np.ndarray, np.ndarray]:
    """(j_l, y_l) over an array of x, each element bitwise the scalar value.

    j and y recur upward as two rows of one loop; where l >= x, j comes from
    the Miller recurrence as an array loop, since its start depends on l
    alone.  NaN where the scalar call raises: `with_y` for ``sph_ordinary``
    (y_l overflow included), else for ``_sph_j``, which needs no 1/x^2 at
    l = 0.
    """
    shape = x.shape
    x = x.astype(float).ravel()
    out = np.full((2, x.size), np.nan)
    ok = (x > 0.0) & (x < math.inf)
    if with_y or l:
        ok &= x * x > 0.0
    xv = x[ok]
    with np.errstate(all="ignore"):
        sx, cx = _elementwise(math.sin, xv), _elementwise(math.cos, xv)
        j0, j1 = sx / xv, sx / (xv * xv) - cx / xv
        prev = np.stack([j0, -cx / xv])  # rows j, y: order 0, then order 1
        cur = np.stack([j1, -cx / (xv * xv) - sx / xv])
        for jj in range(1, l):
            prev, cur = cur, ((2.0 * jj + 1.0) / xv) * cur - prev
        jy = cur if l else prev
        down = np.flatnonzero(l >= xv) if l > 1 else []
        if len(down):
            jy[0, down] = _sph_j_miller_array(l, xv[down], j0[down], j1[down])
    out[:, ok] = jy
    if with_y:
        out[:, ~np.isfinite(out[1])] = np.nan  # y_l overflows at tiny x: the scalar raises
    return out[0].reshape(shape), out[1].reshape(shape)


def _sph_j_miller_array(l: int, x: np.ndarray, j0: np.ndarray, j1: np.ndarray) -> np.ndarray:
    """The Miller branch of :func:`_sph_j` over an array of x, operation for operation."""
    big, shrink = _SPH_RESCALE, 1.0 / _SPH_RESCALE
    fp, fc, fl = np.zeros(x.size), np.full(x.size, _MILLER_SEED), np.zeros(x.size)
    for j in range(_sph_miller_start(l), 0, -1):
        fp, fc = fc, ((2.0 * j + 1.0) / x) * fc - fp
        over = np.abs(fc) > big
        if over.any():
            fc, fp, fl = (np.where(over, f * shrink, f) for f in (fc, fp, fl))
        if j - 1 == l:
            fl = fc
    return fl * np.where(np.abs(j0) >= np.abs(j1), j0 / fc, j1 / fp)
