"""greenchain benchmark: one closed-loop client, one single-threaded worker process.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  NAME is one of the workloads in
workloads.py, or ``all`` to run each in turn.  With ``--trace 0`` the worker
runs untraced and the end-to-end metrics are reported; with ``--trace 1`` it
alternates traced and untraced passes over the same requests, which give the
per-layer metrics and the tracing overhead.  After the worker exits, a
separate process checks its outputs with mpmath and scipy.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
repeat the metrics for people, with provenance.  Full results, outputs and
spans stay in ``.bench_results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters timed for setup_s; the timed worker is one of them
STEP_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env(root, with_library):
    env = dict(os.environ)
    env.pop("GREENCHAIN_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    if with_library:
        env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def _run(cmd, env, timeout=STEP_TIMEOUT_S):
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish within {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _worker(root, out_dir, workload, seed, mode, seconds=0.0):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", repr(float(seconds)),
           "--root", root, "--out-dir", out_dir]
    _run(cmd, _env(root, with_library=True))
    with open(os.path.join(out_dir, f"{mode}.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _oracle(root, path):
    out = _run([sys.executable, os.path.join(HERE, "oracle.py"), path],
               _env(root, with_library=False))
    return json.loads(out.strip().splitlines()[-1])


def _provenance(root, seed, worker_result):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "greenchain", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16], "seed": seed,
            "nproc": os.cpu_count(), "cpu": cpu, "python": worker_result["python"],
            "numpy": worker_result["numpy"]}


def _failures(worker_result, oracle_result):
    """Failing pool entries (worker and oracle) and the number of requests that hit them."""
    failed = dict(oracle_result["failures"])
    failed.update(worker_result["failed"])
    occurrences = sum(1 for i in worker_result["indices"] if str(i) in failed)
    return failed, occurrences


def run_untraced(root, out_dir, workload, seed, seconds):
    setup = [_worker(root, out_dir, workload, seed, "setup")["setup_s"]
             for _ in range(SETUP_SAMPLES - 1)]
    result = _worker(root, out_dir, workload, seed, "run", seconds)
    setup.append(result["setup_s"])
    oracle = _oracle(root, os.path.join(out_dir, "outputs-run.jsonl"))
    failed, n_failed = _failures(result, oracle)
    times_ms = [1e3 * t for t in result["times_s"]]
    attempted = len(times_ms)
    metrics = {
        "request_ms.p50": (statistics.median(times_ms), "ms"),
        "request_ms.p90": (statistics.quantiles(times_ms, n=10, method="inclusive")[8], "ms"),
        "requests_per_s": ((attempted - n_failed) / sum(result["times_s"]), "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    extra = {"failed_frac": (n_failed / attempted, "1")}
    detail = {"setup_samples_s": setup, "oracle": oracle, "failed_entries": failed}
    return metrics, extra, attempted, n_failed, not failed, result, detail


def run_traced(root, out_dir, workload, seed, seconds):
    traced = _worker(root, out_dir, workload, seed, "trace", seconds)
    oracle = _oracle(root, os.path.join(out_dir, "outputs-trace.jsonl"))
    failed, n_failed = _failures(traced, oracle)
    metrics = {name: (value, _layer_unit(name)) for name, value in traced["per_layer"].items()}
    ok = not failed and not traced["unstable_counts"]
    detail = {"oracle": oracle, "failed_entries": failed, "passes": traced["passes"],
              "pass_counts": traced["pass_counts"], "unstable_counts": traced["unstable_counts"],
              "spans_kept": traced["spans_kept"]}
    return metrics, {}, len(traced["times_s"]), n_failed, ok, traced, detail


def _layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "1"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def run_workload(root, workload, seed, seconds, trace):
    out_dir = os.path.join(root, ".bench_results", f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    run = run_traced if trace else run_untraced
    metrics, extra, attempted, failed, ok, worker_result, detail = run(
        root, out_dir, workload, seed, seconds)
    provenance = _provenance(root, seed, worker_result)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "trace": trace, "correct": ok, "attempted": attempted,
                   "failed": failed, "metrics": {**metrics, **extra},
                   "provenance": provenance, **detail}, fh, indent=1)
    print(f"# {workload}: seed {seed}, {attempted} requests, {failed} failed, "
          f"correct={ok}  ({out_dir})")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{workload}  {name:32s} {value:.6g} {unit}")
    for index, reason in sorted(detail["failed_entries"].items(), key=lambda kv: int(kv[0])):
        print(f"{workload}  failed request {index}: {reason}")
    print(f"# provenance: {json.dumps(provenance)}")
    return metrics, attempted, failed, ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "greenchain", "__init__.py")):
        print(f"error: no src/greenchain under {root}; run from the root of a greenchain "
              "checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            metrics, attempted, failed, ok = run_workload(root, name, args.seed, args.seconds,
                                                          args.trace)
            prefix = f"{name}." if args.workload == "all" else ""
            out["correct"] = out["correct"] and ok
            out["attempted"] += attempted
            out["failed"] += failed
            out["metrics"].update({prefix + k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
