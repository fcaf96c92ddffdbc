"""Morphology design optimization over the fixed arm angles theta and beta.

Cost 1 maximizes the force envelope along +z_B subject to omnidirectional
hover (f_min > m g). Cost 2 maximizes omnidirectional capability through the
scalarized objective min(f_min / (m g), tau_min / (m g l / 2)). Both use the
pseudoinverse-fed envelope model and a deterministic multi-start pattern
search with penalty handling of the hover constraint.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envelope import EnvelopeMetrics, envelope, hover_sphere, pinv_radii, sample_directions
from .mass_model import MassModel, compute_mass_inertia, default_mass_model
from .vehicle import (GRAVITY, Morphology, RigidBodyParams, RotorParams, TiltParams,
                      check_int, evenly_spaced_arms)

ANGLE_BOUND = np.pi / 2 - 1e-3
#: Hover axis of the search: body +z.
UP = np.array([0.0, 0.0, 1.0])


@dataclass
class DesignProblem:
    cost: int = 1
    n_arms: int = 6
    arm_length: float = 0.3
    rotor: RotorParams = field(default_factory=RotorParams)
    mass_model: MassModel = field(default_factory=default_mass_model)
    n_dirs_search: int = 1280
    n_dirs_final: int = 1280
    seed: int = 0
    n_random_starts: int = 3
    step_init: float = 0.25
    step_min: float = 0.002

    def __post_init__(self):
        if self.cost not in (1, 2):
            raise ValueError("cost must be 1 or 2")
        for name, least in (("n_arms", 3), ("seed", 0), ("n_random_starts", 0),
                            ("n_dirs_search", 1), ("n_dirs_final", 100)):
            check_int(name, getattr(self, name), least)
        if not self.arm_length > 0.0:
            raise ValueError(f"arm_length must be positive, got {self.arm_length!r}")

    @staticmethod
    def from_dict(data: dict) -> "DesignProblem":
        kwargs = dict(data)
        if "rotor" in kwargs:
            kwargs["rotor"] = RotorParams(**kwargs["rotor"])
        if "mass_model" in kwargs:
            kwargs["mass_model"] = MassModel(**kwargs["mass_model"])
        return DesignProblem(**kwargs)


@dataclass
class DesignResult:
    theta: np.ndarray
    beta: np.ndarray
    cost: int
    objective: float
    feasible: bool
    mass: float
    inertia: np.ndarray
    force: EnvelopeMetrics
    torque: EnvelopeMetrics
    eta_hover_min: float
    eta_hover_max: float

    def to_dict(self) -> dict:
        return {
            "cost": self.cost,
            "theta_deg": np.rad2deg(self.theta).tolist(),
            "beta_deg": np.rad2deg(self.beta).tolist(),
            "objective": self.objective,
            "feasible": bool(self.feasible),
            "mass": self.mass,
            "inertia": np.diag(self.inertia).tolist(),
            "force": {"min": self.force.min, "max": self.force.max,
                      "mean": self.force.mean, "volume": self.force.volume},
            "torque": {"min": self.torque.min, "max": self.torque.max,
                       "mean": self.torque.mean, "volume": self.torque.volume},
            "eta_f_hover": {"min": self.eta_hover_min, "max": self.eta_hover_max},
        }


def build_candidate(problem: DesignProblem, theta, beta) -> Morphology:
    """Morphology for a candidate angle set, body from the mass model."""
    arms = evenly_spaced_arms(problem.n_arms, problem.arm_length, theta, beta,
                              problem.rotor.rotors_per_arm)
    mass, inertia = compute_mass_inertia(arms, problem.mass_model)
    body = RigidBodyParams(mass=mass, inertia=0.5 * (inertia + inertia.T))
    return Morphology(arms=arms, rotor=problem.rotor, tilt=TiltParams(), body=body)


class _CostEvaluator:
    """Penalized objective (to minimize) for the pattern search."""

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        self.dirs, _, _ = sample_directions(problem.n_dirs_search)
        ref = build_candidate(problem, np.zeros(problem.n_arms), np.zeros(problem.n_arms))
        self.mg = ref.body.mass * GRAVITY
        # The published torque envelopes run about twice this model's
        # pseudoinverse values, so mg*l/2 restores the intended weighting
        # and leaves the force term binding around the optimum.
        self.t_ref = 0.5 * self.mg * problem.arm_length
        self.cache: dict[tuple, tuple[float, float]] = {}

    def __call__(self, x: np.ndarray) -> float:
        key = tuple(np.round(x, 9))
        if key in self.cache:
            return self.cache[key][0]
        n = self.problem.n_arms
        m = build_candidate(self.problem, x[:n], x[n:])
        f_vals = pinv_radii(m, self.dirs, mode="force")
        f_min = float(f_vals.min())
        if self.problem.cost == 1:
            f_up = float(pinv_radii(m, UP, mode="force")[0])
            value = -f_up
        else:
            hover = self.mg * UP
            t_min = float(pinv_radii(m, self.dirs, mode="torque", hover_force=hover).min())
            value = -min(f_min / self.mg, t_min / self.t_ref)
        penalty = 1e3 * max(0.0, (self.mg - f_min) / self.mg) ** 2
        value = value + penalty
        self.cache[key] = (value, f_min)
        return value


def _pattern_search(fun, x0: np.ndarray, bound: float, step: float, step_min: float,
                    max_iter: int = 400, decrease_tol: float = 1e-3) -> tuple[np.ndarray, float]:
    """Coordinate pattern search with composite all-beta poll directions."""
    n = x0.size
    n_arms = n // 2
    alt = np.concatenate([np.zeros(n_arms), (-1.0) ** np.arange(n_arms)])
    uni = np.concatenate([np.zeros(n_arms), np.ones(n_arms)])
    x = np.clip(x0.copy(), -bound, bound)
    f = fun(x)
    for _ in range(max_iter):
        if step < step_min:
            break
        best_x, best_f = None, f
        polls = [d for i in range(n) for d in (np.eye(n)[i], -np.eye(n)[i])]
        polls += [alt, -alt, uni, -uni]
        for d in polls:
            cand = np.clip(x + step * d, -bound, bound)
            fc = fun(cand)
            if fc < best_f - decrease_tol * (1.0 + abs(best_f)):
                best_f, best_x = fc, cand
        if best_x is None:
            step *= 0.5
        else:
            x, f = best_x, best_f
    return x, f


def optimize(problem: DesignProblem) -> DesignResult:
    """Multi-start pattern search over (theta, beta); deterministic per seed."""
    n = problem.n_arms
    evaluator = _CostEvaluator(problem)
    alt = (-1.0) ** np.arange(n)
    starts = [np.zeros(2 * n)]
    for b0 in (0.3, 0.55, 0.7):
        starts.append(np.concatenate([np.zeros(n), b0 * alt]))
    rng = np.random.default_rng(problem.seed)
    for _ in range(problem.n_random_starts):
        starts.append(rng.uniform(-0.6, 0.6, size=2 * n))

    # Equal-metric solution families (e.g. rotated octahedra for cost 2) tie
    # up to direction-sampling noise; a 1% window keeps the earliest -- i.e.
    # canonical theta = 0 -- representative unless a start is genuinely better.
    best_x, best_f = None, np.inf
    for x0 in starts:
        x, f = _pattern_search(evaluator, x0, ANGLE_BOUND,
                               problem.step_init, problem.step_min)
        if best_x is None or f < best_f - 0.01 * abs(best_f) - 1e-12:
            best_x, best_f = x, f

    theta, beta = best_x[:n], best_x[n:]
    m = build_candidate(problem, theta, beta)
    hover = evaluator.mg * UP
    force = envelope(m, "force", n_dirs=problem.n_dirs_final)
    torque = envelope(m, "torque", n_dirs=problem.n_dirs_final, hover_force=hover)
    sphere = hover_sphere(m, n_dirs=problem.n_dirs_search)
    feasible = bool(force.min > evaluator.mg and np.all(sphere["feasible"]))
    eta = sphere["eta_f"][sphere["feasible"]]
    return DesignResult(
        theta=theta, beta=beta, cost=problem.cost, objective=float(best_f),
        feasible=feasible, mass=m.body.mass, inertia=m.body.inertia,
        force=force, torque=torque,
        eta_hover_min=float(eta.min()) if eta.size else 0.0,
        eta_hover_max=float(eta.max()) if eta.size else 0.0,
    )


def beta_sweep(problem: DesignProblem, betas,
               n_dirs: int = 1280) -> tuple[np.ndarray, np.ndarray]:
    """f_min of the alternating-beta family over a grid of beta magnitudes."""
    betas = np.asarray(betas, dtype=float)
    pattern = (-1.0) ** np.arange(problem.n_arms)
    dirs, _, _ = sample_directions(n_dirs)
    zeros = np.zeros(problem.n_arms)
    values = np.empty(betas.size)
    for i, b in enumerate(betas):
        m = build_candidate(problem, zeros, b * pattern)
        values[i] = pinv_radii(m, dirs, mode="force").min()
    return betas, values


def compare(results: list[dict]) -> list[dict]:
    """Metrics of each result divided by the first (reference) entry."""
    if len(results) < 2:
        raise ValueError("need at least two results to compare")

    def flatten(r: dict) -> dict:
        out = {"mass": r["mass"]}
        for i, axis in enumerate("xyz"):
            out[f"J_{axis}{axis}"] = r["inertia"][i]
        for mode in ("force", "torque"):
            for key in ("min", "max", "volume"):
                out[f"{mode}_{key}"] = r[mode][key]
        out["eta_min"] = r["eta_f_hover"]["min"]
        out["eta_max"] = r["eta_f_hover"]["max"]
        return out

    ref = flatten(results[0])
    if any(v == 0.0 for v in ref.values()):
        raise ValueError("reference result has a zero metric")
    return [{k: v / ref[k] for k, v in flatten(r).items()} for r in results]
