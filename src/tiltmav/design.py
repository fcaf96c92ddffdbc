"""Morphology design optimization over the fixed arm angles theta and beta.

Cost 1 maximizes the force envelope along +z_B subject to omnidirectional
hover (f_min > m g). Cost 2 maximizes omnidirectional capability through the
scalarized objective min(f_min / (m g), tau_min / (m g l / 2)). Both use the
pseudoinverse-fed envelope model and a deterministic multi-start pattern
search with penalty handling of the hover constraint.

The objective reads only a candidate's least force radius and, for cost 2,
its least torque radius about the hover force. Both come in closed form from
the candidate's pseudoinverse (``_least_radius``), exact where a direction
set would overstate them, so ``n_dirs_search`` sets only the winner's hover
sphere. The 2n + 4 poll points of one search iteration are independent, so
each iteration scores its stencil as one batch: the candidates' arm frames,
static allocations and pseudoinverses are stacked arrays, and each
pseudoinverse is factored once and feeds both radii.
The objective scales by the weight m g of the reference (flat) vehicle and
never reads a candidate's own mass, so no candidate gets a ``Morphology`` or
a mass model; ``build_candidate`` builds only the reference and the winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import static_allocation
# pinv_radii is unused here: perfbench's tracer tests call it through this module.
from .envelope import (EnvelopeMetrics, envelope, hover_sphere, pinv_radii,  # noqa: F401
                       radii_from_pinv)
from .mass_model import MassModel, compute_mass_inertia, default_mass_model
from .vehicle import (GRAVITY, Morphology, RigidBodyParams, RotorParams, TiltParams, arm_frames,
                      check_int, check_real, evenly_spaced_arms, layout_azimuths)

ANGLE_BOUND = np.pi / 2 - 1e-3
#: Hover axis of the search: body +z.
UP = np.array([0.0, 0.0, 1.0])
#: Cap on the secular Newton steps of ``_least_radius``; they stop once no row
#: moves, which takes at most about ten from its start.
_NEWTON_STEPS = 50
#: Cap on the poll iterations of one pattern-search start.
_PATTERN_MAX_ITER = 400


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
        for name, least in (("cost", 1), ("n_arms", 3), ("seed", 0), ("n_random_starts", 0),
                            ("n_dirs_search", 1), ("n_dirs_final", 100)):
            check_int(name, getattr(self, name), least)
        if self.cost > 2:
            raise ValueError(f"cost must be 1 or 2, got {self.cost}")
        check_real("arm_length", self.arm_length, 0.0, strict=True)
        check_real("step_min", self.step_min, 0.0, strict=True)
        # A first step below step_min would end the search before it polls.
        check_real("step_init", self.step_init, self.step_min)


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


def _stacked_pinv(ref: Morphology, x: np.ndarray) -> np.ndarray:
    """Static pseudoinverses (B, 2 n_r, 6) of the angle sets x (B, 2 n_arms) = [theta, beta]:
    ref's arms (layout, lengths, spins and rotors) turned to each set's angles."""
    n = ref.n_arms
    frames = arm_frames(layout_azimuths(n) + x[:, :n], x[:, n:])
    return np.linalg.pinv(static_allocation(ref, frames))


def _least_radius(a_inv: np.ndarray, w_max2: float, hover=None) -> np.ndarray:
    """Exact least radius of the pseudoinverse-fed envelope of each stacked a_inv.

    Without ``hover`` it is the force envelope's minimum; with a hover force
    it is the torque envelope's minimum about it. Both are the infimum over
    all unit directions of the ``radii_from_pinv`` values, which a direction
    set only overstates. Per rotor, with Q its 2x3 block of a_inv (force or
    torque columns) and a its share of the hover allocation, that infimum is
    the largest lambda for which the ellipse a + lambda Q (unit ball) stays in
    the disc |.| <= W = w_max2; the vehicle's value is the least over rotors,
    0 where a hover share alone leaves the disc and inf where no Q acts.

    In the eigenbasis of G = Q Q^T (g1 >= g2 = r g1), the ellipse's farthest
    point from the origin is p_i = a_i / (1 - mu g_i) with mu in [0, 1/g1),
    and lambda^2 = sum_i (p_i - a_i)^2 / g_i at the mu where |p| = W. In
    t = 1 - mu g1, 1/|p| is concave and increasing (the trust-region secular
    equation: More & Sorensen, SIAM J. Sci. Stat. Comput. 4(3), 1983), so
    Newton on 1/|p| - 1/W from t0 = |a_1| / sqrt(W^2 - a_2^2) <= t* climbs
    monotonically to the root. Where a_1 = 0 and |p| < W even at the pole,
    t stays 0 (the hard case) and p_1 takes the rest of the disc,
    p_1^2 = W^2 - p_2^2. A row's steps depend on that row alone.
    """
    q = a_inv[..., 3:] if hover is not None else a_inv[..., :3]
    a = (np.zeros(a_inv.shape[:-1]) if hover is None
         else (a_inv[..., :3] * np.asarray(hover, dtype=float)).sum(-1))
    q1, q2 = q[..., 0::2, :], q[..., 1::2, :]
    g11, g22, g12 = (q1 * q1).sum(-1), (q2 * q2).sum(-1), (q1 * q2).sum(-1)
    half = 0.5 * (g11 - g22)
    h = np.sqrt(half * half + g12 * g12)
    g1 = 0.5 * (g11 + g22) + h
    g1_safe = np.where(g1 > 0.0, g1, 1.0)
    # det G = |q1 x q2|^2 keeps r accurate for a near rank-1 block.
    r = np.where(h > 0.0, np.minimum((np.cross(q1, q2)**2).sum(-1) / g1_safe**2, 1.0), 1.0)
    # g1's eigenvector, or a itself where G is round and any basis serves
    ax, ay = a[..., 0::2], a[..., 1::2]
    round_ = r >= 1.0
    vx = np.where(round_, ax, np.where(half >= 0.0, half + h, g12))
    vy = np.where(round_, ay, np.where(half >= 0.0, g12, h - half))
    vn = np.hypot(vx, vy)
    vn = np.where(vn > 0.0, vn, 1.0)
    a1, a2 = np.abs(ax * vx + ay * vy) / vn, (ax * vy - ay * vx) / vn
    w2 = w_max2 * w_max2
    room = np.maximum(np.sqrt(np.maximum(w2 - a2 * a2, 0.0)), a1)
    t = a1 / np.where(room > 0.0, room, 1.0)
    for _ in range(_NEWTON_STEPS):
        t_safe, d = np.where(t > 0.0, t, 1.0), (1.0 - r) + r * t
        p1, p2 = a1 / t_safe, a2 / np.where(d > 0.0, d, 1.0)
        n2 = p1 * p1 + p2 * p2
        slope = p1 * p1 / t_safe + r * p2 * p2 / np.where(d > 0.0, d, 1.0)
        step = np.where(slope > 0.0, n2 * (np.sqrt(n2) / w_max2 - 1.0), 0.0)
        t_new = np.clip(t + step / np.where(slope > 0.0, slope, 1.0), t, 1.0)
        if np.array_equal(t_new, t):
            break
        t = t_new
    t_safe, d = np.where(t > 0.0, t, 1.0), (1.0 - r) + r * t
    p2 = a2 / np.where(d > 0.0, d, 1.0)
    y1 = np.where(t > 0.0, a1 * (1.0 - t) / t_safe, np.sqrt(np.maximum(w2 - p2 * p2, 0.0)))
    lam = np.where(g1 > 0.0, np.sqrt((y1 * y1 + r * (p2 * (1.0 - t))**2) / g1_safe), np.inf)
    hover_alone_fails = np.any(ax * ax + ay * ay > w2, axis=-1)
    return np.where(hover_alone_fails, 0.0, lam.min(axis=-1))


class _CostEvaluator:
    """Penalized objective (to minimize) for the pattern search.

    It scores angle sets in batches from one stacked pseudoinverse each and
    caches the score of every set by its rounded angles.
    """

    def __init__(self, problem: DesignProblem):
        self.problem = problem
        self.ref = build_candidate(problem, np.zeros(problem.n_arms), np.zeros(problem.n_arms))
        self.mg = self.ref.body.mass * GRAVITY
        # The published torque envelopes run about twice this model's
        # pseudoinverse values, so mg*l/2 restores the intended weighting
        # and leaves the force term binding around the optimum.
        self.t_ref = 0.5 * self.mg * problem.arm_length
        self.cache: dict[tuple, float] = {}

    def __call__(self, x: np.ndarray) -> list[float]:
        """Objective of each row of x (B, 2 n_arms); each new set is scored once."""
        keys = [tuple(np.round(row, 9)) for row in x]
        new = {}                                  # key -> first row holding it
        for i, key in enumerate(keys):
            if key not in self.cache:
                new.setdefault(key, i)
        if new:
            self.cache.update(zip(new, self._score(x[list(new.values())])))
        return [self.cache[key] for key in keys]

    def _score(self, x: np.ndarray) -> list[float]:
        rotor = self.problem.rotor
        a_inv = _stacked_pinv(self.ref, x)
        f_min = _least_radius(a_inv, rotor.omega_max**2)
        if self.problem.cost == 1:      # other: f along +z (cost 1) or the least torque (cost 2)
            other = radii_from_pinv(a_inv, UP[None, :], rotor)[:, 0]
        else:
            other = _least_radius(a_inv, rotor.omega_max**2, self.mg * UP)
        values = []
        for f, o in zip(f_min.tolist(), other.tolist()):
            value = -o if self.problem.cost == 1 else -min(f / self.mg, o / self.t_ref)
            values.append(value + 1e3 * max(0.0, (self.mg - f) / self.mg) ** 2)
        return values


def _pattern_search(fun, x0: np.ndarray, bound: float, step: float, step_min: float,
                    decrease_tol: float = 1e-3) -> tuple[np.ndarray, float]:
    """Coordinate pattern search with composite all-beta poll directions.

    ``fun`` maps a (B, n) batch of points to their B values. Each iteration
    evaluates its whole poll stencil as one batch, then scans it in poll
    order: a point replaces the best so far only if it improves on it by
    more than ``decrease_tol`` relative.
    """
    n = x0.size
    n_arms = n // 2
    alt = np.concatenate([np.zeros(n_arms), (-1.0) ** np.arange(n_arms)])
    uni = np.concatenate([np.zeros(n_arms), np.ones(n_arms)])
    polls = np.array([d for i in range(n) for d in (np.eye(n)[i], -np.eye(n)[i])]
                     + [alt, -alt, uni, -uni])
    x = np.clip(x0.copy(), -bound, bound)
    f = fun(x[None, :])[0]
    for _ in range(_PATTERN_MAX_ITER):
        if step < step_min:
            break
        best_x, best_f = None, f
        cands = np.clip(x + step * polls, -bound, bound)
        for cand, fc in zip(cands, fun(cands)):
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

    # Equal-metric solution families (e.g. rotated octahedra for cost 2) tie up
    # to where each start's pattern search stops; a 1% window keeps the earliest
    # -- i.e. canonical theta = 0 -- representative unless a start is genuinely better.
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


def beta_sweep(problem: DesignProblem, betas) -> tuple[np.ndarray, np.ndarray]:
    """Exact f_min of the alternating-beta family over a grid of beta magnitudes."""
    betas = np.asarray(betas, dtype=float)
    n = problem.n_arms
    x = np.zeros((betas.size, 2 * n))
    x[:, n:] = betas[:, None] * (-1.0) ** np.arange(n)
    ref = build_candidate(problem, np.zeros(n), np.zeros(n))
    return betas, _least_radius(_stacked_pinv(ref, x), problem.rotor.omega_max**2)
