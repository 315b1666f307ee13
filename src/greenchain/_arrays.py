"""Array paths of the Bessel family in :mod:`greenchain.specfun`.

:func:`~greenchain.specfun.bessel_i`, :func:`~greenchain.specfun.bessel_k`,
:func:`~greenchain.specfun.bessel_jy`, :func:`~greenchain.specfun.sph_modified`
and :func:`~greenchain.specfun.sph_ordinary` hand an array of x to the
functions here.  Each element is bitwise the scalar value: every series
runs the scalar recurrence operation for operation and stops where the
scalar loop stops, with ``math`` functions per element where numpy's are
not bitwise the same, and each element is NaN where the scalar call
raises.  The ascending series run as the rows of one blocked Kahan sum
(:func:`_kahan_blocks`, which the Kummer series over an array of points
share), so an array call costs a number of numpy operations that grows
with the longest series, not with the number of elements.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError
from .specfun import (_EULER_GAMMA, _LN_2, _LOG_MAX, _LOG_TINY, _MAX_TERMS, _REL_EPS,
                      _bessel_j_miller, _elementwise)


def _kahan_blocks(ratio, first: np.ndarray, total: np.ndarray, n_steps: int, weight=None,
                  floor=0.0, pending: np.ndarray | None = None,
                  keep_last: np.ndarray | None = None, with_peak: bool = False,
                  first_block: int = 16):
    """Compensated sums of many series at once, each stopped where its scalar loop stops.

    Element i starts from the term ``first[i]`` and the partial sum
    ``total[i]``.  Step s (0 <= s < n_steps) multiplies the term by its
    ratio, ``ratio(s0, s1, cols)[s - s0]`` for the elements `cols`, and adds
    it (times ``weight(s0, s1, cols)[s - s0]`` if given) with Kahan
    compensation.  An element stops after three consecutive steps whose
    added |c| is <= 1e-16 (|sum| + floor), and records that sum and, with
    `with_peak`, the largest |term| so far.  The steps run in blocks: one
    cumulative product gives a block's terms, in the order of the scalar
    ``term *=``, and only the compensated additions loop step by step; the
    first block has `first_block` steps.  Elements not `pending` are
    skipped; one that never stops is NaN, or its last sum where
    `keep_last`.  Returns the sums, or (sums, peaks).
    """
    sums = np.full(first.size, np.nan)
    peaks = np.full(first.size, np.nan) if with_peak else None
    if pending is None or pending.all():
        cols, term = np.arange(first.size), first
    else:
        cols = np.flatnonzero(pending)
        term, total = first[cols], total[cols]
        if isinstance(floor, np.ndarray):
            floor = floor[cols]
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
        if weight is not None:
            c *= weight(s, s1, cols)
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
        scale = np.abs(run)
        if isinstance(floor, np.ndarray):
            scale += floor
        scale *= _REL_EPS
        np.less_equal(np.abs(c, out=c), scale, out=flags[2:])
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
            if isinstance(floor, np.ndarray):
                floor = floor[keep]
        s = s1
    if keep_last is not None:
        last = keep_last[cols]
        sums[cols[last]] = total[last]
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


def _series_rows(q: np.ndarray, first: np.ndarray, orders: tuple[float, ...],
                 log_sign: float = 0.0, pending: np.ndarray | None = None) -> np.ndarray:
    """Ascending Bessel series over an array, as the rows of one blocked Kahan sum.

    Row r starts from ``first[r]`` and multiplies its term by q / (k (m_r + k)),
    the scalar denominator, for m_r in `orders`: q = -x^2/4 gives
    :func:`_bessel_j_series` and q = x^2/4 the scaled series of
    :func:`bessel_i`.  A nonzero `log_sign` adds two rows for the log
    sums of orders 0 and 1, which add the term times log_sign H_k and
    H_k + H_{k+1} - 2 gamma: Y_0 and Y_1 of :func:`_y01_series` (-1) or K_0
    and K_1 of :func:`_k01_series` (+1).  Each wanted element (`pending`,
    default all) stops where its scalar loop stops, so every sum is bitwise
    the scalar one; an order row is NaN where its series does not converge,
    and a log row keeps its last total, as the scalar loops end without
    raising.
    """
    n_j, n = len(orders), q.size
    ms = np.array(orders + ((0, 1) if log_sign else ()), dtype=float)
    shape = (len(ms), n)
    term = np.ones(shape)
    term[:n_j] = first
    total = term.copy()
    floor = np.zeros(len(ms))
    if log_sign:
        total[n_j:] = [[0.0], [1.0 - 2.0 * _EULER_GAMMA]]  # the order-0 sum has no k = 0 term
        floor[n_j] = 1e-300 if log_sign < 0.0 else 0.0  # the Y_0 stopping test adds 1e-300
    row = np.repeat(np.arange(len(ms)), n)
    qs, mk = np.tile(q, len(ms)), ms[row]
    hk, hk1 = [0.0], [1.0]  # H_k and H_{k+1} after step k, summed as the scalar loops do

    def ratio(s0, s1, cols):
        k = np.arange(s0 + 1, s1 + 1, dtype=float)[:, None]
        return qs[cols] / (k * (mk[cols] + k))

    def weight(s0, s1, cols):
        for k in range(len(hk), s1 + 1):
            hk.append(hk[-1] + 1.0 / k)
            hk1.append(hk1[-1] + 1.0 / (k + 1.0))
        h, h1 = np.array(hk[s0 + 1:s1 + 1]), np.array(hk1[s0 + 1:s1 + 1])
        w = np.ones((s1 - s0, len(ms)))
        w[:, n_j] = log_sign * h  # -term * hk is term * -hk
        w[:, n_j + 1] = h + h1 - 2.0 * _EULER_GAMMA
        return w[:, row[cols]]

    logs = row >= n_j
    pending = np.ones(row.size, dtype=bool) if pending is None else pending.ravel()
    sums = _kahan_blocks(ratio, term.ravel(), total.ravel(), _MAX_TERMS - 1,
                         weight if np.count_nonzero(pending & logs) else None,
                         floor[row] if floor.any() else 0.0, pending, logs,
                         first_block=_first_block(float(np.abs(q).max(initial=0.0)), ms.min(), 1))
    return sums.reshape(shape)


def _i_finish(m: int, lh: np.ndarray, q: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """I_m from its scaled series sums as :func:`bessel_i` finishes them, over an array.

    0.0 where the whole sum underflows, NaN where the scalar raises (no
    convergence, overflow past double range).
    """
    log_t0 = m * lh - math.lgamma(m + 1.0)
    under = log_t0 + q / (m + 1.0) < _LOG_TINY
    log_val = log_t0 + _elementwise(math.log, scaled)
    return np.where(under, 0.0,
                    _elementwise(math.exp, np.where(log_val > _LOG_MAX, np.nan, log_val)))


def _k01_cosh_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_k_cosh_integral` at m = 0 and 1 over an array of x in (6, 14).

    The nodes t are the scalar loop's, accumulated the same way, and every
    exp(-x cosh t) is taken in one elementwise call, shared by K_0 and K_1.
    A node past an element's cutoff adds 0.0, which leaves the running sum
    bitwise unchanged, so each sum is accumulated in the scalar order.
    """
    h = 0.2
    ts, t, x_min = [0.0], h, float(x.min())
    while x_min * math.cosh(t) < 760.0:
        ts.append(t)
        t += h
    cosh_t = np.array([math.cosh(t) for t in ts])  # cosh(0) = 1: node 0 gives exp(-x)
    arg = x[:, None] * cosh_t
    live = arg < 760.0
    e = np.zeros(arg.shape)
    e[live] = _elementwise(math.exp, -arg[live])
    terms = np.stack([e, e * cosh_t])  # cosh(0 t) = 1 for K_0, cosh(t) for K_1
    terms[:, :, 0] = 0.5 * e[:, 0]  # t = 0 carries half weight
    k0, k1 = np.add.accumulate(terms, axis=2)[:, :, -1]
    return h * k0, h * k1


def _k01_asymptotic_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_k01_asymptotic` over an array: the mu = 0 and 4 sums for every k at once.

    The terms are one cumulative product and the partial sums one
    cumulative sum, both in the scalar order; each element keeps the
    partial sum from before the term at which the scalar loop breaks.
    """
    pref = np.sqrt(0.5 * math.pi / x) * _elementwise(math.exp, -x)
    # the loop breaks where the terms grow again, from k near 2x, or where they fall
    # below 1e-16 of the sum, which they do before that once x > 18.5
    for n_k in (min(59, int(2.0 * min(float(x.max()), 19.0)) + 3), 59):
        k = np.arange(1.0, n_k + 1.0)[:, None, None]
        sums = np.empty((n_k + 1, 2, x.size))
        sums[0] = 1.0
        sums[1:] = (np.array([[0.0], [4.0]]) - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
        terms = np.multiply.accumulate(sums[1:], axis=0, out=sums[1:])
        size = np.abs(terms)
        brk = np.empty(size.shape, dtype=bool)
        np.greater_equal(size[0], 1.0, out=brk[0])  # the first term against prev = 1
        np.greater_equal(size[1:], size[:-1], out=brk[1:])
        np.add.accumulate(sums, axis=0, out=sums)  # sums[j]: the partial sum before term j + 1
        limit = np.abs(sums[:-1])
        limit *= _REL_EPS
        brk |= size <= limit
        if brk.any(axis=0).all() or n_k == 59:
            break
    total = np.where(brk.any(axis=0), np.take_along_axis(sums, brk.argmax(axis=0)[None], 0)[0],
                     sums[-1])
    return pref * total[0], pref * total[1]


def _ik_array(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I_m, K_m) over an array of x: each bitwise the scalar value, NaN where it raises.

    The I_m series, and at x <= 6 the I_0 and I_1 series and the two K log
    sums of :func:`_k01_series`, run as the rows of one blocked Kahan sum;
    the trapezoid band and the asymptotic band each take one array call.
    """
    shape = x.shape
    x = x.astype(float).ravel()
    i_m, k_m = np.full(x.size, np.nan), np.full(x.size, np.nan)
    ok = (0.5 * x > 0.0) & (x < math.inf)  # else both scalar calls raise
    xv = x[ok]
    with np.errstate(all="ignore"):
        lh = _elementwise(math.log, 0.5 * xv)
        q = 0.25 * xv * xv
        low, mid, high = xv <= 6.0, (xv > 6.0) & (xv < 14.0), xv >= 14.0
        orders = (0, 1) + ((m,) if m > 1 else ())
        row = min(m, 2)
        pending = np.zeros((len(orders) + 2, xv.size), dtype=bool)
        pending[[0, 1, -2, -1]] = low
        pending[row] |= xv <= 700.0
        sums = _series_rows(q, np.ones((len(orders), xv.size)), orders, 1.0, pending=pending)
        iv = _i_finish(m, lh, q, sums[row])
        iv[xv > 700.0] = np.nan
        k0, k1 = np.empty(xv.size), np.empty(xv.size)
        if low.any():
            xl, ll, ql = xv[low], lh[low], q[low]
            i0, i1 = (iv[low] if r == m else _i_finish(r, ll, ql, sums[r][low]) for r in (0, 1))
            k0[low] = -(ll + _EULER_GAMMA) * i0 + sums[-2][low]
            k1[low] = 1.0 / xl + ll * i1 - 0.25 * xl * sums[-1][low]
        if mid.any():
            k0[mid], k1[mid] = _k01_cosh_array(xv[mid])
        if high.any():
            k0[high], k1[high] = _k01_asymptotic_array(xv[high])
        prev, cur = k0, k1
        for j in range(1, m):
            prev, cur = cur, prev + (2.0 * j / xv) * cur
        kv = cur if m else prev
    i_m[ok] = iv
    k_m[ok] = np.where(np.isinf(kv), np.nan, kv)
    return i_m.reshape(shape), k_m.reshape(shape)


def _jy01_asymptotic_array(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`_jy01_asymptotic` over an array: the mu = 0 and 4 sums stacked in one loop.

    Each element stops adding terms where the scalar sum breaks off.
    """
    term = np.ones((2, x.size))
    p = np.ones((2, x.size))
    qsum = np.zeros((2, x.size))
    prev = np.full((2, x.size), math.inf)
    live = np.ones((2, x.size), dtype=bool)
    for k in range(1, 60):
        odd = (2.0 * k - 1.0) ** 2
        term *= np.array([[0.0 - odd], [4.0 - odd]]) / (8.0 * k * x)
        at = np.abs(term)
        live &= ~(at >= prev)
        prev = at
        signed = term if (k // 2) % 2 == 0 else -term
        if k % 2 == 1:
            qsum = np.where(live, qsum + signed, qsum)
        else:
            p = np.where(live, p + signed, p)
        live &= ~(at <= _REL_EPS)
        if not live.any():
            break
    c = np.sqrt(2.0 / (math.pi * x))
    vals = []
    for mm in (0, 1):
        chi = x - (0.5 * mm + 0.25) * math.pi
        cos, sin = _elementwise(math.cos, chi), _elementwise(math.sin, chi)
        vals.append(c * (p[mm] * cos - qsum[mm] * sin))  # J_mm
        vals.append(c * (p[mm] * sin + qsum[mm] * cos))  # Y_mm
    return vals[0], vals[2], vals[1], vals[3]


def _jy_array(m: int, x: np.ndarray, with_y: bool):
    """J_m over an array of x, or with `with_y` the pair (J_m, Y_m) of arrays.

    Each element is bitwise the scalar value, and NaN where the scalar call
    raises.  The J Miller branch (12 < x <= m) calls the scalar per element.
    """
    shape = x.shape
    x = x.astype(float).ravel()
    j = np.full(x.size, np.nan)
    y0, y1 = np.full(x.size, np.nan), np.full(x.size, np.nan)
    ok = (0.5 * x > 0.0) & (x < math.inf)  # else the scalar raises, log(x/2) included
    series, hankel = ok & (x <= 12.0), ok & (x > 12.0)
    with np.errstate(all="ignore"):
        xs = x[series]
        if xs.size:
            lh = _elementwise(math.log, 0.5 * xs)
            orders = ((0, 1) + ((m,) if m > 1 else ())) if with_y else (m,)
            log_t0 = np.array(orders, dtype=float)[:, None] * lh - np.array(
                [[math.lgamma(mm + 1.0)] for mm in orders])
            tiny = log_t0 < _LOG_TINY
            first = _elementwise(math.exp, np.where(tiny, 0.0, log_t0).ravel()).reshape(tiny.shape)
            sums = _series_rows(-(0.25 * xs * xs), first, orders, -1.0 if with_y else 0.0)
            sums[:len(orders)][tiny] = 0.0
            j[series] = sums[min(m, 2) if with_y else 0]
            if with_y:
                j0, j1, s0, s1 = sums[0], sums[1], sums[-2], sums[-1]
                y0[series] = (2.0 / math.pi) * ((lh + _EULER_GAMMA) * j0 + s0)
                y1[series] = (2.0 / math.pi) * (lh * j1 - 1.0 / xs) - 0.5 * xs * s1 / math.pi
        xh = x[hankel]
        if xh.size:
            jp, jc, y0[hankel], y1[hankel] = _jy01_asymptotic_array(xh)
            for jj in range(1, m):
                jp, jc = jc, (2.0 * jj / xh) * jc - jp
            j[hankel] = jc if m else jp
        for i in np.flatnonzero(hankel & (x <= m)).tolist():
            try:
                j[i] = _bessel_j_miller(m, x[i])
            except NumericError:
                j[i] = np.nan
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
    ok = (x > 0.0) & (x <= 700.0)
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
    start = l + int(math.sqrt(40.0 * (l + 1))) + 12
    fp, fc, fl = np.zeros(x.size), np.full(x.size, 1e-30), np.zeros(x.size)
    for j in range(start, 0, -1):
        fp, fc = fc, ((2.0 * j + 1.0) / x) * fc - fp
        big = np.abs(fc) > 1e250
        if big.any():
            fc, fp, fl = (np.where(big, f * 1e-250, f) for f in (fc, fp, fl))
        if j - 1 == l:
            fl = fc
    return fl * np.where(np.abs(j0) >= np.abs(j1), j0 / fc, j1 / fp)
