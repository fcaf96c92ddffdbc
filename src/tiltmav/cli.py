"""Batch command-line front end.

Subcommands: optimize, envelope, simulate, condition-scan. Each run takes a
JSON config (all defaults match the experimental parameter tables), accepts
flag overrides, writes UTF-8 CSV/JSON outputs plus a manifest with a config
hash and output digests, and is byte-reproducible for a fixed config+seed.

Exit codes: 0 success, 2 configuration error, 3 simulation divergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .design import DesignProblem, beta_sweep, optimize
from .diff_allocation import AllocationConfig, BiasConfig, condition_scan
from .envelope import envelope
from .sim import SimConfig, hover_trim, run
from .simlog import stats_to_dict, tracking_stats
from .trajectory import load_waypoints, named_trajectory
from .vehicle import GRAVITY, Morphology, prototype_morphology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config in {path} must be a JSON object, "
                          f"got {type(config).__name__}")
    return config


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[Path],
                    wall_clock: bool) -> Path:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
        # Reproducibility contract: the timestamp stays empty unless
        # explicitly requested, so identical runs write identical bytes.
        "timestamp": datetime.now(timezone.utc).isoformat() if wall_clock else "",
        "outputs": {p.name: _file_hash(p) for p in sorted(outputs)},
    }
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _morphology_from_config(config: dict) -> Morphology:
    spec = config.get("morphology", "prototype")
    if spec == "prototype":
        return prototype_morphology()
    if isinstance(spec, str):
        return Morphology.load(spec)
    return Morphology.from_dict(spec)


def _write_envelope_csv(path: Path, metrics) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dir_x,dir_y,dir_z,value,eta\n")
        for d, v, e in zip(metrics.directions, metrics.values, metrics.eta):
            fh.write(f"{d[0]:.17g},{d[1]:.17g},{d[2]:.17g},{v:.17g},{e:.17g}\n")


def cmd_optimize(args, config: dict, out_dir: Path) -> list[Path]:
    problem_cfg = dict(config.get("design", {}))
    want_sweep = problem_cfg.pop("beta_sweep", False) or args.beta_sweep
    if args.cost is not None:
        problem_cfg["cost"] = args.cost
    if args.seed is not None:
        problem_cfg["seed"] = args.seed
    problem = DesignProblem.from_dict(problem_cfg)
    result = optimize(problem)
    outputs = []
    report = out_dir / "design_result.json"
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(report)
    for mode, metrics in (("force", result.force), ("torque", result.torque)):
        path = out_dir / f"envelope_{mode}.csv"
        _write_envelope_csv(path, metrics)
        outputs.append(path)
    if want_sweep:
        grid, values = beta_sweep(problem, np.arange(0.30, 0.90, 0.005))
        path = out_dir / "beta_sweep.csv"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("beta_rad,f_min\n")
            for b, v in zip(grid, values):
                fh.write(f"{b:.17g},{v:.17g}\n")
        outputs.append(path)
    if not result.feasible:
        print("optimize: no feasible morphology found", file=sys.stderr)
    return outputs


def cmd_envelope(args, config: dict, out_dir: Path) -> list[Path]:
    m = _morphology_from_config(config)
    env_cfg = config.get("envelope", {})
    mode = env_cfg.get("mode", "force")
    n_dirs = env_cfg.get("n_dirs", 1280)
    hover = None
    if mode == "torque":
        hover = env_cfg.get("hover_force",
                            [0.0, 0.0, m.body.mass * GRAVITY])
    metrics = envelope(m, mode=mode, n_dirs=n_dirs, hover_force=hover,
                       allocation=env_cfg.get("allocation", "pinv"))
    outputs = []
    report = out_dir / "envelope_metrics.json"
    with open(report, "w", encoding="utf-8") as fh:
        json.dump({"mode": mode, "min": metrics.min, "max": metrics.max,
                   "mean": metrics.mean, "volume": metrics.volume},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(report)
    path = out_dir / "envelope_samples.csv"
    _write_envelope_csv(path, metrics)
    outputs.append(path)
    return outputs


def _sim_pieces(args, config: dict):
    m = _morphology_from_config(config)
    sim_cfg = dict(config.get("sim", {}))
    if args.seed is not None:
        sim_cfg["seed"] = args.seed
    if args.controller is not None:
        sim_cfg["controller"] = args.controller
    sim = SimConfig(**sim_cfg)
    traj_spec = args.traj or config.get("trajectory", "a")
    if isinstance(traj_spec, str) and len(traj_spec) == 1 and traj_spec in "abcdefg":
        traj = named_trajectory(traj_spec, scale=config.get("trajectory_scale", 1.0))
    else:
        traj = load_waypoints(traj_spec)
    alloc = AllocationConfig.from_dict(config.get("allocation", {}))
    bias_cfg = dict(config.get("bias", {}))
    if args.bias is not None:
        bias_cfg["enabled"] = args.bias == "on"
    bias = BiasConfig.from_dict(bias_cfg)
    return m, sim, traj, alloc, bias


def cmd_simulate(args, config: dict, out_dir: Path) -> tuple[list[Path], bool]:
    m, sim, traj, alloc, bias = _sim_pieces(args, config)
    alpha0 = None
    unwind = False
    if args.unwind:
        trim_alpha, _ = hover_trim(m, traj.sample(traj.t0).r_wb)
        alpha0 = trim_alpha
        alpha0[:args.unwind] = alpha0[:args.unwind] + 2.0 * np.pi
        unwind = True
    log = run(sim, m, traj, gains=config.get("gains"), alloc=alloc, bias=bias,
              unwind=unwind, alpha0=alpha0)
    outputs = []
    log_path = out_dir / "simlog.csv"
    log.to_csv(log_path)
    outputs.append(log_path)
    stats_path = out_dir / "tracking_stats.json"
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats_to_dict(tracking_stats(log)), fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append(stats_path)
    if unwind:
        final_alpha = [float(log.column(f"alpha_{i}")[-1]) for i in range(m.n_arms)]
        unw_path = out_dir / "unwinding.json"
        with open(unw_path, "w", encoding="utf-8") as fh:
            json.dump({"final_alpha": final_alpha,
                       "all_below_pi": bool(np.all(np.abs(final_alpha) < np.pi))},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
        outputs.append(unw_path)
    return outputs, log.diverged


def cmd_condition_scan(args, config: dict, out_dir: Path) -> list[Path]:
    m = _morphology_from_config(config)
    scan_cfg = config.get("condition_scan", {})
    bias_on = (args.bias == "on") if args.bias is not None else scan_cfg.get("bias", False)
    result = condition_scan(
        m,
        hover_dir=scan_cfg.get("hover_dir", (0.0, 0.0, 1.0)),
        extra_force_mag=scan_cfg.get("extra_force_mag"),
        bias_on=bias_on,
        n_dirs=scan_cfg.get("n_dirs", 320),
        alloc=AllocationConfig.from_dict(config.get("allocation", {})),
        bias_cfg=BiasConfig.from_dict({**config.get("bias", {}), "enabled": True}),
    )
    path = out_dir / "condition_scan.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("dir_x,dir_y,dir_z,log_kappa\n")
        for d, v in zip(result["directions"], result["log_kappa"]):
            fh.write(f"{d[0]:.17g},{d[1]:.17g},{d[2]:.17g},{v:.17g}\n")
    summary = out_dir / "condition_scan.json"
    max_log = result["max_log_kappa"]
    with open(summary, "w", encoding="utf-8") as fh:
        json.dump({"bias": bias_on,
                   "max_log_kappa": max_log if np.isfinite(max_log) else "inf"},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path, summary]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltmav",
        description="Tiltrotor omnidirectional multirotor design and simulation workbench")
    parser.add_argument("command",
                        choices=["optimize", "envelope", "simulate", "condition-scan"])
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--traj", default=None,
                        help="named trajectory a..g or a waypoint JSON file")
    parser.add_argument("--controller", choices=["lqri", "pid"], default=None)
    parser.add_argument("--bias", choices=["on", "off"], default=None,
                        help="tilt-bias singularity handling")
    parser.add_argument("--unwind", type=int, default=0, metavar="N",
                        help="start N arms wound at 2*pi and enable unwinding")
    parser.add_argument("--cost", type=int, choices=[1, 2], default=None)
    parser.add_argument("--beta-sweep", action="store_true",
                        help="also export the alternating-beta f_min sweep")
    parser.add_argument("--wall-clock", action="store_true",
                        help="stamp the manifest with the actual time")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        diverged = False
        if args.command == "optimize":
            outputs = cmd_optimize(args, config, out_dir)
        elif args.command == "envelope":
            outputs = cmd_envelope(args, config, out_dir)
        elif args.command == "simulate":
            outputs, diverged = cmd_simulate(args, config, out_dir)
        else:
            outputs = cmd_condition_scan(args, config, out_dir)
        manifest = _write_manifest(out_dir, args.command, config, outputs,
                                   args.wall_clock)
        print(f"wrote {len(outputs)} outputs + {manifest}")
        if diverged:
            print("simulation diverged; partial log written", file=sys.stderr)
            return EXIT_DIVERGED
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
