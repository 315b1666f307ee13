"""One benchmark process: set up a workload, then run it untraced, traced or not at all.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src``.  Modes:

* ``setup``  -- import greenchain and build the seeded inputs, report the time;
* ``run``    -- closed loop, one request at a time, over whole blocks of the
  pool until --seconds have passed and at least 100 requests are done;
* ``trace``  -- the traced prefix of the pool in whole passes, alternately
  with span wrappers installed and without them, until --seconds have
  passed; the untraced passes give the tracing overhead.

Every mode writes ``<mode>.json`` into --out-dir; ``run`` and ``trace`` also
write the first output of every pool entry to ``outputs-<mode>.jsonl`` for
the oracle.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

MIN_REQUESTS = 100  # p90 needs ten samples beyond it
HARD_LIMIT_S = 120.0  # stop early rather than overrun the per-run time limit


def _setup(args):
    from workloads import Library, make_pool

    lib = Library()
    src = os.path.realpath(os.path.join(args.root, "src")) + os.sep
    if not os.path.realpath(lib.package.__file__).startswith(src):
        raise SystemExit(f"greenchain was imported from {lib.package.__file__}, not from {src}")
    blocks, trace_blocks = make_pool(args.workload, args.seed)
    return lib, blocks, trace_blocks, time.perf_counter() - _T0


class Recorder:
    """Checks each output, writes the first one of every pool entry, compares the rest."""

    def __init__(self, lib, path, scratch):
        self.lib = lib
        self.scratch = scratch
        self.fh = open(path, "w", encoding="utf-8")
        self.digests = {}
        self.failed = {}  # pool index -> reason
        self.levels_returned = 0

    def close(self):
        self.fh.close()

    def record(self, index, req, raw, error):
        if error is None:
            try:
                output, levels = self.lib.output(req, raw, self.scratch)
            except (OSError, RuntimeError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed.setdefault(index, error)
            output, levels = None, None
        elif levels is not None:
            self.levels_returned += levels
            if levels < req["n"]:
                self.failed.setdefault(index, f"returned {levels} of {req['n']} levels")
        digest = hashlib.sha256(json.dumps(output).encode()).hexdigest()
        if index not in self.digests:
            self.digests[index] = digest
            self.fh.write(json.dumps({"id": index, "request": req, "error": error,
                                      "output": output}) + "\n")
        elif self.digests[index] != digest:
            self.failed.setdefault(index, "output differs between repeats of the same input")
        return output


def _loop(lib, blocks, recorder, stop, per_request=None):
    """Closed loop over whole blocks; returns per-request seconds and pool indices."""
    times, indices = [], []
    block_len = len(blocks[0])
    n_blocks = len(blocks)
    t_start = time.perf_counter()
    b = 0
    while True:
        base = (b % n_blocks) * block_len
        for j, req in enumerate(blocks[b % n_blocks]):
            index = base + j
            with per_request.request() if per_request else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    raw, error = lib.call(req, recorder.scratch), None
                except Exception as exc:  # a failed request is recorded, never fatal
                    raw, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
            times.append(t1 - t0)
            indices.append(index)
            output = recorder.record(index, req, raw, error)
            if per_request is not None and req["kind"] == "scan" and output is not None:
                per_request.bytes_out(len(output.encode()))
        b += 1
        if stop(b, len(times), time.perf_counter() - t_start):
            return times, indices


class _TraceHooks:
    """Opens the root span of each traced request and keeps the counts of each pass."""

    def __init__(self, tracer, count_totals):
        self.tracer = tracer
        self.count_totals = count_totals
        self.pass_counts = []
        self._previous = count_totals(tracer)
        self._requests = 0

    def request(self):
        """Root span of the next traced request."""
        self._requests += 1
        return self.tracer.request(self._requests - 1)

    def bytes_out(self, n):
        self.tracer.counts["cli.bytes_out"] += n

    def end_of_pass(self):
        now = self.count_totals(self.tracer)
        self.pass_counts.append({k: now[k] - self._previous[k] for k in now})
        self._previous = now


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--root", required=True, help="checkout root holding src/greenchain")
    p.add_argument("--out-dir", required=True)
    args = p.parse_args()

    lib, blocks, trace_blocks, setup_s = _setup(args)
    result = {"setup_s": setup_s}
    if args.mode != "setup":
        warnings.filterwarnings("ignore", message="scan: skipping grid point")
        scratch = os.path.join(args.out_dir, f"scan-{args.mode}.csv")
        recorder = Recorder(lib, os.path.join(args.out_dir, f"outputs-{args.mode}.jsonl"),
                            scratch)
        try:
            if args.mode == "run":
                times, indices = _loop(lib, blocks, recorder, lambda b, n, el: (
                    (el >= args.seconds and n >= MIN_REQUESTS) or el >= HARD_LIMIT_S))
            else:
                result.update(_traced(args, lib, blocks[:trace_blocks], recorder))
                times, indices = result.pop("times"), result.pop("indices")
        finally:
            recorder.close()
        result.update({
            "times_s": times,
            "indices": indices,
            "failed": {str(k): v for k, v in recorder.failed.items()},
            "levels_returned": recorder.levels_returned,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "python": sys.version.split()[0],
            "numpy": sys.modules["numpy"].__version__,
        })
    with open(os.path.join(args.out_dir, f"{args.mode}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _traced(args, lib, blocks, recorder):
    """Traced passes alternating with untraced passes of the same requests."""
    import spans

    requests_per_pass = len(blocks) * len(blocks[0])
    tracer = spans.Tracer(lib.package.GreenChainError, lib.package.NearPoleError)
    hooks = _TraceHooks(tracer, spans.count_totals)

    def one_pass(b, n, elapsed):
        return b == len(blocks)

    seconds = {True: 0.0, False: 0.0}
    times, indices = [], []
    t_start = time.perf_counter()
    while True:
        # alternate which kind goes first, so slow drift of the machine cancels
        for traced in (True, False) if len(hooks.pass_counts) % 2 == 0 else (False, True):
            if traced:
                with spans.installed(tracer, lib):
                    t, i = _loop(lib, blocks, recorder, one_pass, per_request=hooks)
                hooks.end_of_pass()
            else:
                t, i = _loop(lib, blocks, recorder, one_pass)
            seconds[traced] += sum(t)
            times += t
            indices += i
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds or elapsed >= HARD_LIMIT_S:
            break
    passes = len(hooks.pass_counts)
    unstable = sorted(k for k in hooks.pass_counts[0]
                      if any(pc[k] != hooks.pass_counts[0][k] for pc in hooks.pass_counts))
    # untraced passes return the same levels; repeats were compared byte for byte
    metrics = spans.per_layer_metrics(tracer, passes, requests_per_pass,
                                      recorder.levels_returned / (2 * passes))
    metrics["trace.overhead_pct"] = 100.0 * (seconds[True] / seconds[False] - 1.0)
    with open(os.path.join(args.out_dir, "spans.csv"), "w", encoding="utf-8") as fh:
        fh.write("name,start_s,end_s,parent,request\n")
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for name, start, end, parent, request in tracer.spans:
            fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent},{request}\n")
    return {"times": times, "indices": indices, "passes": passes,
            "per_layer": metrics, "pass_counts": hooks.pass_counts,
            "unstable_counts": unstable, "spans_kept": len(tracer.spans)}


if __name__ == "__main__":
    main()
