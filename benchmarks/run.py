"""netrand benchmark: three closed-loop, single-caller workloads.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload oracle-n3200 --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, measured with tracing off. ``--trace 1`` reports the
per-layer metrics: it alternates untraced and traced ops and takes the
layer numbers from the traced ones. The line before it holds the run's
environment, determinism digest and check details, which are also written
to benchmarks/out/.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _clamp_threads() -> dict:
    """Start at most nproc BLAS threads; must run before numpy is imported."""
    requested = {}
    for var in THREAD_VARS:
        raw = os.environ.get(var)
        requested[var] = raw
        try:
            want = int(raw) if raw else NPROC
        except ValueError:
            want = NPROC
        os.environ[var] = str(max(1, min(want, NPROC)))
    return requested


REQUESTED_THREADS = _clamp_threads()

sys.path.insert(0, str(ROOT / "src"))
try:
    import netrand  # noqa: E402
except ImportError as exc:
    sys.exit(f"benchmark: cannot import netrand from {ROOT / 'src'}: {exc}")
if Path(netrand.__file__).resolve().parent.parent != (ROOT / "src").resolve():
    sys.exit(f"benchmark: netrand was imported from {netrand.__file__}, not {ROOT / 'src'}")

import numpy as np  # noqa: E402

from checks import CheckFailed  # noqa: E402
from tracing import Tracer, dominant_layer, layer_metrics, layer_unit  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WARMUP_FIRST = 1_000_000  # warm-up op indices, disjoint from the timed ops
OUT = HERE / "out"

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_s_p50": "s", "op_s_tail": "s",
                   "setup_s": "s", "peak_rss_mb": "MB", "success_frac": "fraction"}


def blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = deps.get("name"), deps.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    if info["threads"] is None:
        info["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
        info["threads_source"] = "OPENBLAS_NUM_THREADS"
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {"nproc": NPROC, "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "thread_env": {v: os.environ[v] for v in THREAD_VARS},
            "thread_env_requested": REQUESTED_THREADS}


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest of p90/p75 with at least ten ops beyond it; p50 when the
    run has too few ops for either."""
    for q, label in ((0.90, "p90"), (0.75, "p75")):
        if len(latencies) * (1.0 - q) >= 10:
            return float(np.quantile(latencies, q)), label
    return statistics.median(latencies), "p50"


def digest(payloads: list) -> str:
    text = json.dumps(payloads, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed_setup(workload, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def closed_loop(workload, seconds: float, tracer: Tracer | None):
    """Run ops back to back for `seconds`, and at least as many ops as the
    digest covers. With a tracer, every second op runs with the tracer's
    patches installed."""
    records = []  # (index, latency, traced, OpResult)
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
            t0 = time.perf_counter()
            try:
                with tracer.span("op"):
                    res = workload.op(i, tracer.span)
            finally:
                t1 = time.perf_counter()
                tracer.uninstall()
        else:
            t0 = time.perf_counter()
            res = workload.op(i)
            t1 = time.perf_counter()
        records.append((i, t1 - t0, traced, res))
        i += 1
        if t1 - start >= seconds and i >= workload.digest_ops:
            return records, t1 - start


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list]:
    cls = WORKLOADS[workload_name]
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = cls(seed, workdir)
        setup_times = timed_setup(workload, cls.setup_repeats)
        tracer = None
        if trace:
            tracer = Tracer()
            with tracer.installed():
                workload.setup()
        for w in range(cls.warmup_ops):
            workload.op(WARMUP_FIRST + w)
        records, wall = closed_loop(workload, seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct, check_info = True, {}
        try:
            first_ok = next((r for r in records if not r[3].failed), None)
            if first_ok is None:
                raise CheckFailed("no op succeeded")
            check_info = workload.check(first_ok[0], first_ok[3])
        except CheckFailed as exc:
            correct, check_info = False, {"error": str(exc)}
            print(f"benchmark: output check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records)
    failed = sum(r[3].failed for r in records)
    info = {"workload": workload_name, "seed": seed, "seconds": seconds,
            "trace": int(trace), "ops": attempted, "env": environment(),
            "digest": digest([r[3].digest for r in records[:cls.digest_ops]]),
            "digest_ops": cls.digest_ops,
            "check": check_info, "setup_s_repeats": setup_times}
    if not trace:
        latencies = [r[1] for r in records]
        tail_s, tail_label = tail(latencies)
        info["tail_percentile"], info["tail_samples"] = tail_label, attempted
        values = {
            "ops_per_s": attempted / wall,
            "op_s_p50": statistics.median(latencies),
            "op_s_tail": tail_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "success_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        traced = [r for r in records if r[2]]
        plain = [r for r in records if not r[2]]
        values, extra = layer_metrics(tracer, [r[0] for r in traced])
        mean_traced = statistics.fmean(r[1] for r in traced)
        mean_plain = statistics.fmean(r[1] for r in plain)
        values["trace.overhead_frac"] = 1.0 - mean_plain / mean_traced
        info["dominant_layer"] = dominant_layer({**values, **extra})
        # layers only some workloads enter: a per-layer metric must be
        # measured on every workload, so these are reported here instead
        info["layer_metrics_where_run"] = {
            k: {"value": v, "unit": layer_unit(k)} for k, v in extra.items()}
        info["traced_ops"] = len(traced)
        info["patch_missing"] = tracer.missing
        spans_path = OUT / f"spans-{workload_name}-s{seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        info["spans_file"] = str(spans_path.relative_to(ROOT))
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info, [r[1] for r in records]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    threads = blas_info()["threads"]
    if threads > NPROC:
        print(f"benchmark: BLAS runs {threads} threads but nproc is {NPROC}; refusing",
              file=sys.stderr)
        return 2
    # numpy seeds must be non-negative; keep each seed's inputs distinct
    seed = args.seed % (1 << 64)
    result, info, latencies = run(args.workload, seed, args.seconds, bool(args.trace))
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"result": result, "info": info, "op_latencies_s": latencies}, indent=1))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
