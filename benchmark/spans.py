"""Span tracing around the public functions of each greenchain layer.

The wrappers are installed on the module globals where callers look the
functions up (``spectrum`` binds its special functions at import time,
``greens`` calls ``specfun.<name>``, ``chain`` calls ``lu``/``solve``/``det``/
``boundary_matrix`` as globals, the benchmark calls ``cli.main``) and are
removed again when the ``installed`` context exits.

Self time is a span's duration minus the time its child spans cover.  A
span's own interval holds little but the wrapped call, while the cover it
reports to its parent includes its bookkeeping, so a parent's self time does
not absorb the tracing cost of its children.
"""

from __future__ import annotations

import contextlib
import warnings
from collections import Counter, defaultdict
from time import perf_counter

_SKIP_PREFIX = "scan: skipping grid point"

# (module attribute on the Library, function name, span name)
WRAPPED = (
    ("specfun", "bessel_i", "specfun.bessel_i"),
    ("specfun", "bessel_k", "specfun.bessel_k"),
    ("specfun", "sph_modified", "specfun.sph_modified"),
    ("specfun", "gamma_signlog", "specfun.gamma_signlog"),
    ("specfun", "pcf_d_signlog", "specfun.pcf_d_signlog"),
    ("spectrum", "kummer_m", "specfun.kummer_m"),
    ("spectrum", "pcf_d_signlog", "specfun.pcf_d_signlog"),
    ("spectrum", "gamma_signlog", "specfun.gamma_signlog"),
    ("spectrum", "bessel_jy", "specfun.bessel_jy"),
    ("spectrum", "sph_ordinary", "specfun.sph_ordinary"),
    ("greens", "g0_rect", "greens.g0"),
    ("greens", "g0_cyl", "greens.g0"),
    ("greens", "g0_sph", "greens.g0"),
    ("greens", "g0_osc", "greens.g0"),
    ("chain", "boundary_matrix", "chain.boundary_matrix"),
    ("chain", "lu", "chain.lu"),
    ("chain", "solve", "chain.solve"),
    ("chain", "det", "chain.det"),
    ("spectrum", "scan_sign_changes", "spectrum.scan"),
    ("spectrum", "char_scan_table", "spectrum.scan"),
    ("spectrum", "brent", "spectrum.brent"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    """Keeps spans in memory (up to `keep` of them) and aggregates every span online."""

    def __init__(self, errors, near_pole_error, keep: int = 100_000):
        self.errors = errors  # the library's own exception base class
        self.near_pole_error = near_pole_error
        self.keep = keep
        self.spans = []  # (name, start, end, parent index or -1, request id)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # frames: [name, start, time covered by children, span index]
        self.request_id = -1

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        index = -1
        if len(self.spans) < self.keep:
            index = len(self.spans)
            self.spans.append(None)  # filled when the span closes; children need the index
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        return frame, parent

    def _close(self, frame, parent, t1, t_enter):
        """Close a span ending at t1; the parent's cover runs from t_enter to now."""
        self._stack.pop()
        name, t0, covered, index = frame
        self.calls[name] += 1
        self.self_s[name] += (t1 - t0) - covered
        if index >= 0:
            self.spans[index] = (name, t0, t1, parent[3] if parent else -1, self.request_id)
        if parent is not None:
            parent[2] += perf_counter() - t_enter

    def span(self, name, fn, on_result=None):
        """`fn` wrapped in a span named `name`; `on_result` updates the counters."""

        def traced(*args, **kwargs):
            t_enter = perf_counter()
            frame, parent = self._open(name)
            t1 = None
            frame[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if on_result is not None:
                    on_result(self.counts, args, result)
                return result
            except self.errors as exc:
                t1 = perf_counter()
                self._raised(name, parent, exc)
                raise
            finally:
                self._close(frame, parent, t1 if t1 is not None else perf_counter(), t_enter)

        traced.__wrapped__ = fn
        return traced

    def _raised(self, name, parent, exc):
        if name.startswith("specfun.") and not (parent and parent[0].startswith("specfun.")):
            self.counts["specfun.raised"] += 1
        if name == "chain.solve" and isinstance(exc, self.near_pole_error):
            self.counts["chain.near_pole"] += 1

    @contextlib.contextmanager
    def request(self, request_id):
        """Root span of one request: the parent of its layer spans."""
        self.request_id = request_id
        t_enter = perf_counter()
        frame, parent = self._open("request")
        frame[1] = perf_counter()
        try:
            yield
        finally:
            self._close(frame, parent, perf_counter(), t_enter)


def _count_scan(counts, args, brackets):
    counts["spectrum.grid_points"] += args[3]
    counts["spectrum.brackets"] += len(brackets)


def _count_table(counts, args, rows):
    counts["spectrum.grid_points"] += len(rows)
    counts["spectrum.grid_skipped"] += sum(1 for row in rows if row[1] is None)


def _count_brent(counts, args, root):
    counts["spectrum.brent.iterations"] += root.iterations


_HOOKS = {"scan_sign_changes": _count_scan, "char_scan_table": _count_table,
          "brent": _count_brent}


def _recording_warnings(fn, counts):
    """scan_sign_changes with its per-point skip warnings counted instead of printed."""

    def quiet(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fn(*args, **kwargs)
        skipped = 0
        for w in caught:
            if str(w.message).startswith(_SKIP_PREFIX):
                skipped += 1
            else:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        counts["spectrum.grid_skipped"] += skipped
        return result

    quiet.__wrapped__ = fn
    return quiet


@contextlib.contextmanager
def installed(tracer, lib):
    """Install every span wrapper on `lib`'s modules; restore the originals on exit."""
    modules = {"specfun": lib.package.specfun, "spectrum": lib.spectrum,
               "greens": lib.greens, "chain": lib.chain, "cli": lib.cli}
    originals = []
    try:
        for mod_name, attr, span_name in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            originals.append((module, attr, original))
            fn = original
            if attr == "scan_sign_changes":
                fn = _recording_warnings(fn, tracer.counts)
            setattr(module, attr, tracer.span(span_name, fn, _HOOKS.get(attr)))
        yield
    finally:
        for module, attr, original in reversed(originals):
            setattr(module, attr, original)
    for module, attr, original in originals:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"wrapper on {module.__name__}.{attr} was not restored")


def count_totals(tracer):
    """Running totals of every count metric, compared pass by pass by the worker."""
    c, k = tracer.calls, tracer.counts
    return {
        "specfun.kummer_m.calls": c["specfun.kummer_m"],
        "specfun.pcf_d_signlog.calls": c["specfun.pcf_d_signlog"],
        "specfun.raised": k["specfun.raised"],
        "greens.g0.calls": c["greens.g0"],
        "chain.lu.calls": c["chain.lu"],
        "chain.near_pole": k["chain.near_pole"],
        "spectrum.grid_points": k["spectrum.grid_points"],
        "spectrum.grid_skipped": k["spectrum.grid_skipped"],
        "spectrum.brackets": k["spectrum.brackets"],
        "spectrum.brent.calls": c["spectrum.brent"],
        "spectrum.brent.iterations": k["spectrum.brent.iterations"],
        "cli.bytes_out": k["cli.bytes_out"],
    }


def per_layer_metrics(tracer, passes, requests_per_pass, levels_returned):
    """Per-layer metrics: counts are totals over one pass, times are ms per request."""
    n_requests = passes * requests_per_pass

    def ms(*names):
        return 1e3 * sum(tracer.self_s[n] for n in names) / n_requests

    per_pass = {name: total // passes for name, total in count_totals(tracer).items()}
    grid = per_pass["spectrum.grid_points"]
    brent_calls = per_pass["spectrum.brent.calls"]
    return {
        "specfun.kummer_m.calls": per_pass["specfun.kummer_m.calls"],
        "specfun.kummer_m.self_ms": ms("specfun.kummer_m"),
        "specfun.pcf_d_signlog.calls": per_pass["specfun.pcf_d_signlog.calls"],
        "specfun.pcf_d_signlog.self_ms": ms("specfun.pcf_d_signlog"),
        "specfun.gamma_signlog.self_ms": ms("specfun.gamma_signlog"),
        "specfun.bessel_ik.self_ms": ms("specfun.bessel_i", "specfun.bessel_k"),
        "specfun.sph_modified.self_ms": ms("specfun.sph_modified"),
        "specfun.bessel_jy.self_ms": ms("specfun.bessel_jy"),
        "specfun.sph_ordinary.self_ms": ms("specfun.sph_ordinary"),
        "specfun.raised": per_pass["specfun.raised"],
        "greens.g0.calls": per_pass["greens.g0.calls"],
        "greens.g0.calls_per_request": per_pass["greens.g0.calls"] / requests_per_pass,
        "greens.g0.self_ms": ms("greens.g0"),
        "chain.boundary_matrix.self_ms": ms("chain.boundary_matrix"),
        "chain.lu.calls": per_pass["chain.lu.calls"],
        "chain.lu.self_ms": ms("chain.lu"),
        "chain.solve.self_ms": ms("chain.solve"),
        "chain.det.self_ms": ms("chain.det"),
        "chain.near_pole": per_pass["chain.near_pole"],
        "spectrum.grid_points": grid,
        "spectrum.grid_skipped_frac": per_pass["spectrum.grid_skipped"] / grid if grid else 0.0,
        "spectrum.scan.self_ms": ms("spectrum.scan"),
        "spectrum.brackets": per_pass["spectrum.brackets"],
        "spectrum.brent.calls": brent_calls,
        "spectrum.brent.iterations": per_pass["spectrum.brent.iterations"],
        "spectrum.brent.self_ms": ms("spectrum.brent"),
        "spectrum.roots_kept_frac": levels_returned / brent_calls if brent_calls else 0.0,
        "cli.main.self_ms": ms("cli.main"),
        "cli.bytes_out": per_pass["cli.bytes_out"],
    }
