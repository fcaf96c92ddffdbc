"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Every workload drives tiltmav's public Python API. ``build`` turns the
benchmark seed into concrete inputs (the library never sees the seed),
``run`` is one timed pass, ``check`` returns the list of violated output
tolerances (empty when the pass is correct) and ``digest`` hashes the
outputs so passes can be compared for determinism.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Library calls go through the module objects, so the tracer's patches of
# those attributes see the benchmark's own top-level calls as well.
from tiltmav import design, diff_allocation, envelope, sim, simlog
from tiltmav.design import DesignProblem
from tiltmav.diff_allocation import BiasConfig
from tiltmav.sim import SimConfig, hover_trim
from tiltmav.trajectory import Trajectory, Waypoint, named_trajectory
from tiltmav.vehicle import GRAVITY, prototype_morphology

ENVELOPE_DIRS = 320
OCTAHEDRAL_BETA_DEG = 35.26


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], dict]
    run: Callable[[dict, Path], dict]
    check: Callable[[dict], list[str]]
    sim_seconds: float = 0.0      # simulated time per pass (simulations)
    dirs_per_pass: int = 0        # direction queries per pass (reachable sets)


# ---------------------------------------------------------------------------
# Closed-loop simulations
# ---------------------------------------------------------------------------

def _sim_outputs(log, out_dir: Path) -> dict:
    path = out_dir / "simlog.csv"
    log.to_csv(path)
    stats = simlog.stats_to_dict(simlog.tracking_stats(log))
    return {"columns": list(log.columns), "log": log.array(), "diverged": log.diverged,
            "csv_bytes": path.stat().st_size, "stats": stats}


def build_sim_flip(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"config": SimConfig(controller="lqri"), "morphology": prototype_morphology(),
            "trajectory": named_trajectory("g"),
            "p_offset": rng.uniform(-0.05, 0.05, size=3)}


def run_sim_flip(inputs: dict, out_dir: Path) -> dict:
    log = sim.run(inputs["config"], inputs["morphology"], inputs["trajectory"],
                  p_offset=inputs["p_offset"])
    return _sim_outputs(log, out_dir)


def _column(out: dict, name: str) -> np.ndarray:
    return out["log"][:, out["columns"].index(name)]


def _median_position_error(out: dict) -> float:
    e_p = np.stack([_column(out, f"e_p_{c}") for c in "xyz"], axis=1)
    return float(np.median(np.linalg.norm(e_p, axis=1)))


def _sim_failures(out: dict, max_median_err: float, skip_columns=()) -> list[str]:
    failures = []
    if out["diverged"]:
        failures.append("simulation diverged")
    keep = [i for i, c in enumerate(out["columns"]) if c not in skip_columns]
    if out["log"].size == 0 or not np.all(np.isfinite(out["log"][:, keep])):
        failures.append("log holds non-finite values")
    med = _median_position_error(out)
    if not med < max_median_err:
        failures.append(f"median |e_p| {med:.4f} m >= {max_median_err} m")
    return failures


def check_sim_flip(out: dict) -> list[str]:
    return _sim_failures(out, 0.1)


def build_sim_unwind(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    m = prototype_morphology()
    traj = Trajectory([Waypoint(t=0.0, p=[0.0, 0.0, 1.3]),
                       Waypoint(t=5.0, p=[0.5, 0.3, 1.5]),
                       Waypoint(t=10.0, p=[0.0, 0.0, 1.3])])
    alpha0, _ = hover_trim(m, traj.sample(traj.t0).r_wb)
    wound = np.arange(int(rng.integers(2)), m.n_arms, 2)     # even or odd arms
    alpha0[wound] += 2.0 * np.pi
    config = SimConfig(controller="pid", seed=int(rng.integers(2**31)), sigma_a=0.05,
                       sigma_omega=0.005, use_estimator=True)
    return {"config": config, "morphology": m, "trajectory": traj, "alpha0": alpha0}


def run_sim_unwind(inputs: dict, out_dir: Path) -> dict:
    log = sim.run(inputs["config"], inputs["morphology"], inputs["trajectory"],
                  bias=BiasConfig(enabled=True), unwind=True, alpha0=inputs["alpha0"])
    return _sim_outputs(log, out_dir)


def check_sim_unwind(out: dict) -> list[str]:
    # The PID path logs no stability test: those two columns are NaN by design.
    failures = _sim_failures(out, 0.02, skip_columns=("stab_lhs", "stab_rhs"))
    n_arms = sum(c.startswith("alpha_cmd_") for c in out["columns"])
    final = np.array([_column(out, f"alpha_{i}")[-1] for i in range(n_arms)])
    if not np.all(np.abs(final) < np.pi):
        failures.append(f"arms not unwound: final |alpha| max {np.abs(final).max():.3f}")
    return failures


# ---------------------------------------------------------------------------
# Design search
# ---------------------------------------------------------------------------

def build_design_oct(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {"problem": DesignProblem(cost=2, n_dirs_search=ENVELOPE_DIRS, n_random_starts=1,
                                     seed=int(rng.integers(2**31)))}


def run_design_oct(inputs: dict, out_dir: Path) -> dict:
    return design.optimize(inputs["problem"]).to_dict()


def check_design_oct(out: dict) -> list[str]:
    failures = []
    theta = np.asarray(out["theta_deg"])
    beta = np.asarray(out["beta_deg"])
    if not np.abs(theta).max() < 1.0:
        failures.append(f"|theta| max {np.abs(theta).max():.3f} deg >= 1 deg")
    signs = np.sign(beta)
    if not np.all(signs == signs[0] * (-1.0) ** np.arange(beta.size)):
        failures.append(f"beta does not alternate: {beta.round(2).tolist()}")
    dev = np.abs(np.abs(beta) - OCTAHEDRAL_BETA_DEG).max()
    if not dev < 0.5:
        failures.append(f"|beta| off the octahedral {OCTAHEDRAL_BETA_DEG} deg by {dev:.3f}")
    if not out["feasible"]:
        failures.append("design infeasible")
    return failures


# ---------------------------------------------------------------------------
# Reachable-set queries
# ---------------------------------------------------------------------------

def build_reach_optimal(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    theta, beta = rng.uniform(-0.6, 0.6, size=(2, 6))
    return {"prototype": prototype_morphology(),
            "candidate": design.build_candidate(DesignProblem(), theta, beta)}


def run_reach_optimal(inputs: dict, out_dir: Path) -> dict:
    out = {}
    for label in ("prototype", "candidate"):
        m = inputs[label]
        hover = m.body.mass * GRAVITY * np.array([0.0, 0.0, 1.0])
        for mode, hover_force in (("force", None), ("torque", hover)):
            env = envelope.envelope(m, mode, n_dirs=ENVELOPE_DIRS, hover_force=hover_force,
                                    allocation="optimal")
            key = f"{label}_{mode}"
            out[f"{key}_optimal"] = env.values
            out[f"{key}_volume"] = env.volume
            out[f"{key}_pinv"] = envelope.pinv_radii(m, env.directions, mode=mode,
                                                     hover_force=hover_force)
    proto = inputs["prototype"]
    out["f_z"] = envelope.max_wrench_in_direction(proto, [0.0, 0.0, 1.0])
    out["scan_off"] = diff_allocation.condition_scan(proto, bias_on=False)["log_kappa"]
    out["scan_on"] = diff_allocation.condition_scan(proto, bias_on=True)["log_kappa"]
    return out


def check_reach_optimal(out: dict) -> list[str]:
    failures = []
    if not abs(out["f_z"] - 133.1) < 0.1:
        failures.append(f"f_z = {out['f_z']:.3f} N, expected 133.1 +- 0.1 N")
    # The LP inscribes a 64-gon in each arm disc, so it may undershoot the
    # exact optimum by cos(pi/64); it never loses to the pseudoinverse feed.
    floor = np.cos(np.pi / 64)
    for key in sorted(k for k in out if k.endswith("_optimal")):
        opt, pinv = out[key], out[key.replace("_optimal", "_pinv")]
        short = opt < floor * pinv
        if short.any():
            ratio = float(np.min(opt[short] / pinv[short]))
            failures.append(f"{key}: {int(short.sum())} directions below cos(pi/64) x pinv "
                            f"(worst ratio {ratio:.4f})")
    off, on = float(np.max(out["scan_off"])), float(np.max(out["scan_on"]))
    if not off >= 30.0:
        failures.append(f"bias-off max log kappa {off:.2f} < 30")
    if not on <= 10.0:
        failures.append(f"bias-on max log kappa {on:.2f} > 10")
    return failures


# ---------------------------------------------------------------------------

def digest(value) -> str:
    """Hash of an output tree; floats and arrays enter bit for bit."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            h.update(b"{")
            for k in sorted(v):
                h.update(str(k).encode() + b":")
                feed(v[k])
            h.update(b"}")
        elif isinstance(v, (list, tuple)):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif isinstance(v, np.ndarray):
            arr = np.ascontiguousarray(v)
            h.update(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
        elif isinstance(v, (float, np.floating)):
            h.update(float(v).hex().encode())
        else:
            h.update(repr(v).encode())
        h.update(b";")

    feed(value)
    return h.hexdigest()


WORKLOADS = {
    w.name: w for w in (
        Workload("sim_flip", build_sim_flip, run_sim_flip, check_sim_flip,
                 sim_seconds=8.0),
        Workload("sim_unwind", build_sim_unwind, run_sim_unwind, check_sim_unwind,
                 sim_seconds=10.0),
        Workload("design_oct", build_design_oct, run_design_oct, check_design_oct),
        # Four envelopes, each queried by LP and by pinv; f_z; two condition
        # scans over the sphere plus six axes and +-hover.
        Workload("reach_optimal", build_reach_optimal, run_reach_optimal,
                 check_reach_optimal,
                 dirs_per_pass=4 * 2 * ENVELOPE_DIRS + 1 + 2 * (ENVELOPE_DIRS + 8)),
    )
}
