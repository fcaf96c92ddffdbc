"""Batch command-line front end.

Subcommands: optimize, envelope, simulate, condition-scan. Each run takes a
JSON config (all defaults match the experimental parameter tables), accepts
flag overrides, writes UTF-8 CSV/JSON outputs plus a manifest with a config
hash and output digests, and is byte-reproducible for a fixed config+seed.

Exit codes: 0 success, 2 configuration error (``ConfigError``), 3 simulation
divergence; any other exception propagates as the fault it is.
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
from .lqri import LqriGains
from .mass_model import MassModel
from .pid import PidGains
from .sim import SimConfig, hover_trim, run
from .simlog import stats_to_dict, tracking_stats
from .trajectory import load_waypoints, named_trajectory
from .vehicle import GRAVITY, Morphology, RotorParams, check_bool, prototype_morphology

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

CONFIG_KEYS = ("allocation", "bias", "condition_scan", "design", "envelope", "gains",
               "morphology", "sim", "trajectory", "trajectory_scale")


class ConfigError(ValueError):
    pass


def _reject_unknown(path: str, section: dict, known) -> None:
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {', '.join(unknown)}")


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
    _reject_unknown(path, config, CONFIG_KEYS)
    return config


def _section(config: dict, path: str) -> dict:
    """A copy of the JSON object at a dotted key path, {} where absent."""
    section = config
    for key in path.split("."):
        section = section.get(key, {})
        if not isinstance(section, dict):
            raise ConfigError(f"{path} must be a JSON object, got {type(section).__name__}")
    return dict(section)


def _build(path: str, make, /, *args, **kwargs):
    """make(*args, **kwargs), a rejected key or value reported under its section path.

    Every default lives in the signature of ``make``, so a section's keys
    are exactly its parameter names, and ``make`` checks its own values. A
    ``LinAlgError`` (a ``ValueError``) is a numerical fault inside a
    computing ``make`` such as ``envelope``, not a config error, and
    propagates.
    """
    try:
        return make(*args, **kwargs)
    except np.linalg.LinAlgError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_input(load, path: str):
    """load(path), a missing or malformed input file reported as a config error."""
    try:
        return load(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"input file not found: {path}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, data) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: Path, header: str, rows) -> Path:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    return path


def _write_envelope_csv(path: Path, metrics) -> Path:
    return _write_csv(path, "dir_x,dir_y,dir_z,value,eta",
                      np.column_stack([metrics.directions, metrics.values, metrics.eta]))


def _write_manifest(out_dir: Path, command: str, config: dict, outputs: list[Path],
                    wall_clock: bool) -> Path:
    return _write_json(out_dir / "manifest.json", {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "config_hash": _config_hash(config),
        # Reproducibility contract: the timestamp stays empty unless
        # explicitly requested, so identical runs write identical bytes.
        "timestamp": datetime.now(timezone.utc).isoformat() if wall_clock else "",
        "outputs": {p.name: _file_hash(p) for p in sorted(outputs)},
    })


def _morphology_from_config(config: dict) -> Morphology:
    spec = config.get("morphology", "prototype")
    if spec == "prototype":
        return prototype_morphology()
    if isinstance(spec, str):
        return _read_input(Morphology.load, spec)
    return _build("morphology", Morphology.from_dict, spec)


def cmd_optimize(args, config: dict, out_dir: Path) -> list[Path]:
    problem_cfg = _section(config, "design")
    want_sweep = problem_cfg.pop("beta_sweep", False)
    _build("design", check_bool, "beta_sweep", want_sweep)
    if args.cost is not None:
        problem_cfg["cost"] = args.cost
    if args.seed is not None:
        problem_cfg["seed"] = args.seed
    for key, make in (("rotor", RotorParams), ("mass_model", MassModel)):
        if key in problem_cfg:
            problem_cfg[key] = _build(f"design.{key}", make, **_section(config, f"design.{key}"))
    problem = _build("design", DesignProblem, **problem_cfg)
    result = optimize(problem)
    outputs = [_write_json(out_dir / "design_result.json", result.to_dict())]
    for mode, metrics in (("force", result.force), ("torque", result.torque)):
        outputs.append(_write_envelope_csv(out_dir / f"envelope_{mode}.csv", metrics))
    if want_sweep or args.beta_sweep:
        grid, values = beta_sweep(problem, np.arange(0.30, 0.90, 0.005))
        outputs.append(_write_csv(out_dir / "beta_sweep.csv", "beta_rad,f_min",
                                  np.column_stack([grid, values])))
    if not result.feasible:
        print("optimize: no feasible morphology found", file=sys.stderr)
    return outputs


def cmd_envelope(args, config: dict, out_dir: Path) -> list[Path]:
    m = _morphology_from_config(config)
    env_cfg = _section(config, "envelope")
    if env_cfg.get("mode") == "torque":
        # The command line holds the torque envelope at hover unless told otherwise.
        env_cfg.setdefault("hover_force", [0.0, 0.0, m.body.mass * GRAVITY])
    metrics = _build("envelope", envelope, m, **env_cfg)
    report = _write_json(out_dir / "envelope_metrics.json",
                         {"mode": metrics.mode, "min": metrics.min, "max": metrics.max,
                          "mean": metrics.mean, "volume": metrics.volume})
    return [report, _write_envelope_csv(out_dir / "envelope_samples.csv", metrics)]


def _sim_pieces(args, config: dict):
    m = _morphology_from_config(config)
    if not 0 <= args.unwind <= m.n_arms:
        raise ConfigError(f"--unwind takes 0 to {m.n_arms} arms, got {args.unwind}")
    sim_cfg = _section(config, "sim")
    if args.seed is not None:
        sim_cfg["seed"] = args.seed
    if args.controller is not None:
        sim_cfg["controller"] = args.controller
    sim = _build("sim", SimConfig, **sim_cfg)
    traj_spec = args.traj or config.get("trajectory", "a")
    if not isinstance(traj_spec, str):
        raise ConfigError(f"trajectory must be a-g or a waypoint file, got {traj_spec!r}")
    if len(traj_spec) == 1 and traj_spec in "abcdefg":
        scale = {"scale": config["trajectory_scale"]} if "trajectory_scale" in config else {}
        traj = _build("trajectory_scale", named_trajectory, traj_spec, **scale)
    elif "trajectory_scale" in config:
        raise ConfigError("trajectory_scale applies to the named trajectories a-g only, "
                          f"not to the waypoint file {traj_spec}")
    else:
        traj = _read_input(load_waypoints, traj_spec)
    # Both gain sets are built whichever controller runs, so a typo never hides.
    _reject_unknown("gains", _section(config, "gains"), ("pid", "lqri"))
    gains = {"pid": _build("gains.pid", PidGains, **_section(config, "gains.pid")),
             "lqri": _build("gains.lqri", LqriGains, **_section(config, "gains.lqri"))}
    bias_cfg = _section(config, "bias")
    if args.bias is not None:
        bias_cfg["enabled"] = args.bias == "on"
    bias = _build("bias", BiasConfig, **bias_cfg)
    alloc = _build("allocation", AllocationConfig, **_section(config, "allocation"))
    return m, sim, traj, gains, alloc, bias


def cmd_simulate(args, config: dict, out_dir: Path):
    """Run one simulation; returns (outputs, (time, cause) of a divergence or None)."""
    m, sim, traj, gains, alloc, bias = _sim_pieces(args, config)
    alpha0 = None
    unwind = args.unwind > 0
    if unwind:
        alpha0, _ = hover_trim(m, traj.sample(traj.t0).r_wb)
        alpha0[:args.unwind] = alpha0[:args.unwind] + 2.0 * np.pi
    log = run(sim, m, traj, gains=gains, alloc=alloc, bias=bias,
              unwind=unwind, alpha0=alpha0)
    log_path = out_dir / "simlog.csv"
    log.to_csv(log_path)
    outputs = [log_path, _write_json(out_dir / "tracking_stats.json",
                                     stats_to_dict(tracking_stats(log)))]
    if unwind:
        final_alpha = log.block("alpha", range(m.n_arms))[-1].tolist()
        outputs.append(_write_json(out_dir / "unwinding.json", {
            "final_alpha": final_alpha,
            "all_below_pi": bool(np.all(np.abs(final_alpha) < np.pi))}))
    return outputs, log.divergence


def cmd_condition_scan(args, config: dict, out_dir: Path) -> list[Path]:
    m = _morphology_from_config(config)
    scan_cfg = _section(config, "condition_scan")
    if args.bias is not None:
        scan_cfg["bias_on"] = args.bias == "on"
    bias_section = _section(config, "bias")
    if "enabled" in bias_section:
        raise ConfigError("bias: condition-scan does not read bias.enabled; its one bias "
                          "switch is --bias or condition_scan.bias_on")
    bias_cfg = _build("bias", BiasConfig, **bias_section)
    result = _build("condition_scan", condition_scan, m, bias_cfg=bias_cfg, **scan_cfg)
    path = _write_csv(out_dir / "condition_scan.csv", "dir_x,dir_y,dir_z,log_kappa",
                      np.column_stack([result["directions"], result["log_kappa"]]))
    max_log = result["max_log_kappa"]
    summary = _write_json(out_dir / "condition_scan.json", {
        "bias": result["bias_on"],
        "max_log_kappa": max_log if np.isfinite(max_log) else "inf"})
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
        divergence = None
        if args.command == "optimize":
            outputs = cmd_optimize(args, config, out_dir)
        elif args.command == "envelope":
            outputs = cmd_envelope(args, config, out_dir)
        elif args.command == "simulate":
            outputs, divergence = cmd_simulate(args, config, out_dir)
        else:
            outputs = cmd_condition_scan(args, config, out_dir)
        manifest = _write_manifest(out_dir, args.command, config, outputs,
                                   args.wall_clock)
        print(f"wrote {len(outputs)} outputs + {manifest}")
        if divergence is not None:
            t, cause = divergence
            print(f"simulation diverged at t={t:.3f} s ({cause}); partial log written",
                  file=sys.stderr)
            return EXIT_DIVERGED
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
