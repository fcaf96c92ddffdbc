#!/usr/bin/env python3
"""Alternated benchmark pairs: a base commit against this checkout.

    python3 scripts/ab.py --base HEAD --workloads design_oct --seed 1 --pairs 10 \\
        --seconds 5 --out BENCH_<n>.json

Extracts ``git archive`` of ``--base`` into ``.bench_build/base/`` and the
working tree's tracked files into ``.bench_build/change/``, so both sides run
from sibling directories and the checkout's own path stays out of the
comparison, and runs ``perfbench/run.py --trace 0`` in each, one run of each
per pair, swapping which side runs first from pair to pair. A run that exits
non-zero or reports ``"correct": false`` stops the comparison with an error
naming its workload, side and pair, so no failed pass reaches a median. For
every workload (at this seed) and end-to-end metric it writes each side's
median and quartiles, the change/base ratio of the medians, the pairs the
change won and lost (ties count for neither) and whether the medians differ
by more than the base's interquartile range, along with each side's
first-pass output digests, each run's pass count (``attempted``: a faster side
runs more passes in the same ``--seconds``, which moves its peak memory) and
the machine facts; the stderr summary says per workload whether both sides'
first-pass digests agree. An existing ``--out`` file keeps its other entries,
so several seeds or workloads can share one file. ``.bench_build/`` is removed
at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], change: list[float], better: str = "lower") -> dict:
    """Compare one metric over alternated pairs: base[i] and change[i] ran together."""
    if len(base) != len(change) or not base:
        raise ValueError("need the same positive number of base and change values")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - c) > 0.0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    return {"base": {"median": bmed, "q1": bq1, "q3": bq3, "values": base},
            "change": {"median": cmed, "q1": cq1, "q3": cq3, "values": change},
            "ratio": cmed / bmed if bmed else None,
            "pairs": len(base), "wins": wins, "losses": losses,
            "beyond_base_iqr": abs(cmed - bmed) > bq3 - bq1}


def machine() -> dict:
    import numpy as np
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "processor": platform.processor() or None}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in ``checkout``: result line, exit code, first-pass digest."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} printed no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    record = json.loads((checkout / "perfbench" / "out" / f"{workload}.trace0.json").read_text())
    result["digest"] = record["passes"][0]["digest"]
    return result


def extract(base: str) -> tuple[Path, Path]:
    """``git archive`` of ``base`` into BUILD/base and copies of the working tree's
    tracked files (as they stand, edits included) into BUILD/change."""
    base_dir, change_dir = BUILD / "base", BUILD / "change"
    base_dir.mkdir()
    archive = subprocess.run(["git", "archive", base], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive, check=True)
    tracked = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                             capture_output=True).stdout.decode().split("\0")
    for name in tracked:
        if name and (ROOT / name).is_file():       # a tracked file deleted in the tree is gone
            (change_dir / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, change_dir / name)
    return base_dir, change_dir


def compare(workload: str, seed: int, pairs: int, seconds: float, base_dir: Path,
            change_dir: Path) -> dict:
    runs = {"base": [], "change": []}
    for i in range(pairs):
        order = [("base", base_dir), ("change", change_dir)]
        for side, checkout in order[::-1] if i % 2 else order:
            result = run_once(checkout, workload, seed, seconds)
            if result["exit_code"] or not result["correct"]:
                raise RuntimeError(
                    f"{workload} seed {seed} pair {i + 1}/{pairs}: the {side} run failed "
                    f"(exit code {result['exit_code']}, {result['failed']} of "
                    f"{result['attempted']} passes failed their checks); nothing is compared")
            runs[side].append(result)
            wall = result["metrics"]["wall_s"]["value"]
            sys.stderr.write(f"{workload} seed {seed} pair {i + 1}/{pairs} {side} {wall:.4f}s\n")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"metrics": {}, "digests": {}}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        out["metrics"][name] = summarize(
            [r["metrics"][name]["value"] for r in runs["base"]],
            [r["metrics"][name]["value"] for r in runs["change"]], metric["better"])
    for side in runs:
        out["digests"][side] = sorted({r["digest"] for r in runs[side]})
    out["passes"] = {side: [r["attempted"] for r in runs[side]] for side in runs}
    return out


def summary(results: dict) -> list[str]:
    """Per workload: both sides' median pass counts, one line per metric, and
    whether the sides' first-pass digests agree (one digest, the same on both)."""
    lines = []
    for key, res in results.items():
        base, change = (statistics.median(res["passes"][side]) for side in ("base", "change"))
        lines.append(f"{key} passes: base median {base:g} change median {change:g}")
        for name, s in res["metrics"].items():
            lines.append(f"{key} {name}: base {s['base']['median']:.4g} change "
                         f"{s['change']['median']:.4g} ratio {s['ratio']:.3f} "
                         f"wins {s['wins']}/{s['pairs']}")
        digests = res["digests"]
        if len(digests["base"]) == 1 and digests["base"] == digests["change"]:
            lines.append(f"{key} digests: agree {digests['base'][0]}")
        else:
            lines.append(f"{key} digests: DIFFER base {' '.join(digests['base'])} "
                         f"change {' '.join(digests['change'])}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5.0, help="--seconds of each run")
    ap.add_argument("--out", type=Path, required=True, help="JSON file, relative to the repo root")
    args = ap.parse_args(argv)
    out_path = args.out if args.out.is_absolute() else ROOT / args.out
    base = subprocess.run(["git", "rev-parse", args.base], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    BUILD.mkdir()
    try:
        base_dir, change_dir = extract(base)
        results = {f"{w}@seed{args.seed}": compare(w, args.seed, args.pairs, args.seconds,
                                                   base_dir, change_dir)
                   for w in args.workloads}
    finally:
        shutil.rmtree(BUILD)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc.update({"base": base, "machine": machine()})
    doc.setdefault("runs", {}).update(results)
    out_path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    sys.stderr.writelines(line + "\n" for line in summary(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
