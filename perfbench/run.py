"""tiltmav benchmark: one workload, timed passes, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
Untraced (``--trace 0``) it prints the end-to-end metrics named in
``BENCHMARK.json``; traced (``--trace 1``) it alternates untraced and traced
passes and prints the per-layer metrics. The last line of standard output is
one JSON object; progress and the machine facts go to standard error, and
the full record (all passes, metrics and, when traced, the spans) to
``perfbench/out/<workload>.trace<0|1>.json``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: numpy here links a multithreaded
# OpenBLAS, and the benchmark generates its load from a single thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def _use_checkout_sources() -> None:
    """Import tiltmav from this checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "tiltmav" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no tiltmav sources under {src}\n")
        raise SystemExit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    import tiltmav
    if Path(tiltmav.__file__).resolve().parent != src / "tiltmav":
        sys.stderr.write(f"perfbench: tiltmav imported from {tiltmav.__file__}, not {src}\n")
        raise SystemExit(2)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0.0:
        ap.error("--seconds must be positive")
    return args


def _environment() -> dict:
    import ctypes
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib in libs:
        try:
            threads = int(ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "loadavg": os.getloadavg(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def _probe_setup(args) -> None:
    """Fresh-process set-up: import the library, build the workload's inputs."""
    from perfbench.workloads import WORKLOADS
    WORKLOADS[args.workload].build(args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def _setup_seconds(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": [(m["name"], m["unit"]) for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"]) for m in spec["per_layer"]]}


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_sources()
    if args.probe_setup:
        _probe_setup(args)
        return 0

    from perfbench import tracer as tr
    from perfbench.workloads import WORKLOADS, digest

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}\n")
        return 2
    specs = _metric_specs()
    workload = WORKLOADS[args.workload]
    env = _environment()
    sys.stderr.write("env " + json.dumps(env) + "\n")

    setup = [] if args.trace else _setup_seconds(args)
    inputs = workload.build(args.seed)
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    tracer = tr.Tracer()
    passes = []      # dicts: traced, seconds, digest, failures
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer.pass_id = len(passes)
        failures, dig = [], None
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            out = workload.run(inputs, OUT_DIR)
        except Exception:      # a failed pass is counted, not fatal
            out = None
            failures.append("raised: " + traceback.format_exc().strip().splitlines()[-1])
            traceback.print_exc()
        finally:
            seconds = time.perf_counter() - start
            tracer.restore()
        if out is not None:
            failures += workload.check(out)
            dig = digest(out)
            if passes and dig != passes[0]["digest"]:
                failures.append("output digest differs from the first pass")
        passes.append({"traced": traced, "seconds": seconds, "digest": dig,
                       "failures": failures})
        sys.stderr.write(f"pass {len(passes)} {'traced' if traced else 'untraced'} "
                         f"{seconds:.3f}s {'ok' if not failures else failures}\n")
        elapsed = time.perf_counter() - t0
        estimate = statistics.median(p["seconds"] for p in passes)
        enough = not args.trace or len(passes) >= 2
        if enough and elapsed + estimate > args.seconds:
            break

    untraced = [p["seconds"] for p in passes if not p["traced"]]
    wall_s = statistics.median(untraced)
    failed = sum(bool(p["failures"]) for p in passes)
    metrics = {
        "wall_s": wall_s,
        "setup_s": statistics.median(setup) if setup else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / len(passes),
    }
    if workload.sim_seconds:
        metrics["rtf"] = workload.sim_seconds / wall_s
    if workload.dirs_per_pass:
        metrics["dirs_per_s"] = workload.dirs_per_pass / wall_s

    spans = []
    if args.trace:
        spans = tracer.finished()
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        metrics.update(tr.layer_metrics(spans, tracer.counts, traced_ids))
        ticks = tr.tick_times_ms(spans, traced_ids)
        metrics["sim.tick.ms_p50"] = tr.percentile(ticks, 50.0)
        metrics["sim.tick.ms_p95"] = tr.percentile(ticks, 95.0)
        metrics["envelope.lp_share"] = tr.lp_share(spans, set(traced_ids))
        traced_wall = statistics.median(passes[i]["seconds"] for i in traced_ids)
        metrics["trace.overhead_frac"] = traced_wall / wall_s - 1.0

    record = {"args": vars(args), "env": env, "setup_s": setup, "passes": passes,
              "metrics": metrics, "spans": [list(s) for s in spans]}
    out_path = OUT_DIR / f"{args.workload}.trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="utf-8")

    wanted = specs["per_layer" if args.trace else "end_to_end"]
    missing = [name for name, _ in wanted if metrics.get(name) is None]
    if missing:
        sys.stderr.write(f"perfbench: metrics not measured: {missing}\n")
        return 1
    extras = {k: metrics[k] for k in ("fail_frac", "rtf", "dirs_per_s") if k in metrics}
    sys.stderr.write("summary " + json.dumps(extras) + "\n")
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in wanted}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
