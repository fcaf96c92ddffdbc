"""Reachable force/torque envelopes and efficiency indices.

Two radial models are provided per direction:

* "pinv" (default for envelope metrics): the commanded wrench is pushed
  through the Moore-Penrose inverse of the static allocation matrix and
  scaled until the first rotor saturates. This mirrors how the original
  morphology tool feeds commands forward, and reproduces its published
  metrics (e.g. f_max/f_min = 2 for the flat hexarotor).

* "optimal": the true per-direction maximum. Per arm, rotors share one tilt
  angle, so the arm's aggregate thrust state is a 2-vector
  v_a = (lateral, vertical) of summed squared-speed components with
  ||v_a|| <= rotors_per_arm * omega_max^2. Counter-rotating pairs cancel
  drag at equal speeds and a single rotor carries its spin sign, so the
  wrench is linear in the v_a and the maximum is a small linear program
  over polygonized discs. The flat hexarotor's optimal ratio is sqrt(3).

A batched support-function dual accelerates min-over-directions queries of
the optimal model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .allocation import static_allocation
from .vehicle import GRAVITY, Morphology


# ---------------------------------------------------------------------------
# Direction sampling
# ---------------------------------------------------------------------------

def icosphere(subdivisions: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere: (vertices, faces). 3 subdivisions give 1280 faces."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(subdivisions):
        edge_mid: dict[tuple[int, int], int] = {}
        verts_list = [v for v in verts]

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = verts_list[i] + verts_list[j]
                m /= np.linalg.norm(m)
                edge_mid[key] = len(verts_list)
                verts_list.append(m)
            return edge_mid[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        verts = np.array(verts_list)
        faces = np.array(new_faces)
    return verts, faces


def sample_directions(n_dirs: int = 1280) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Face-centroid directions of the finest icosphere with >= n_dirs faces.

    Returns (directions, vertices, faces); directions[i] is the normalized
    centroid of faces[i].
    """
    subdivisions = 0
    while 20 * 4**subdivisions < n_dirs:
        subdivisions += 1
    verts, faces = icosphere(subdivisions)
    centroids = verts[faces].mean(axis=1)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    return centroids, verts, faces


# ---------------------------------------------------------------------------
# Arm aggregation
# ---------------------------------------------------------------------------

def arm_wrench_blocks(m: Morphology) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm 6x2 wrench maps and disc radii (in squared-speed units).

    blocks[a] maps the arm-aggregated (lateral, vertical) squared-speed
    components to the body wrench; radii[a] bounds their Euclidean norm.
    Rotors on one arm share its tilt angle, so at equal speeds each block is
    the per-arm mean of the static allocation's lateral and vertical columns
    (counter-rotating pairs cancel their drag torque).
    """
    rpa = m.rotor.rotors_per_arm
    a = static_allocation(m).reshape(6, m.n_arms, rpa, 2)
    blocks = a.mean(axis=2).transpose(1, 0, 2)
    radii = np.full(m.n_arms, rpa * m.rotor.omega_max**2)
    return blocks, radii


# ---------------------------------------------------------------------------
# Pseudoinverse-fed radii (the morphology tool's model)
# ---------------------------------------------------------------------------

def pinv_radii(m: Morphology, directions: np.ndarray, mode: str = "force",
               hover_force=None, return_eta: bool = False):
    """Saturation-limited wrench magnitude per direction under Eq.-(11) feed.

    The unit wrench is allocated with the static pseudoinverse and scaled
    until the first rotor reaches omega_max; torque mode adds the scaled
    torque on top of a fixed hover-force allocation. With ``return_eta``
    the per-direction force (or torque) efficiency index of the attained
    point comes along.
    """
    dirs = np.atleast_2d(np.asarray(directions, dtype=float))
    a_inv = np.linalg.pinv(static_allocation(m))
    w_max2 = m.rotor.omega_max**2
    c_f = m.rotor.c_f
    if mode == "force":
        wt = a_inv[:, :3] @ dirs.T                       # (2 n_r, D)
        pairs = np.hypot(wt[0::2, :], wt[1::2, :])
        worst = pairs.max(axis=0)
        values = np.where(worst > 0.0, w_max2 / np.maximum(worst, 1e-300), np.inf)
        if not return_eta:
            return values
        # eta_f = ||f|| / sum thrust = 1 / (c_f * sum per-rotor pairs)
        eta = 1.0 / np.maximum(c_f * pairs.sum(axis=0), 1e-300)
        return values, np.minimum(eta, 1.0)
    if mode != "torque":
        raise ValueError(f"unknown mode {mode!r}")
    hover = np.zeros(3) if hover_force is None else np.asarray(hover_force, dtype=float)
    w0 = a_inv @ np.concatenate([hover, np.zeros(3)])
    dw = a_inv[:, 3:] @ dirs.T
    a0 = np.stack([w0[0::2], w0[1::2]])                  # (2, n_r)
    a1 = np.stack([dw[0::2, :], dw[1::2, :]])            # (2, n_r, D)
    # Per rotor, ||a0 + lam a1|| = w_max2 gives the saturating quadratic.
    qa = (a1**2).sum(axis=0)
    qb = 2.0 * (a0[:, :, None] * a1).sum(axis=0)
    qc = ((a0**2).sum(axis=0) - w_max2**2)[:, None]
    if np.any(qc > 0.0):
        zeros = np.zeros(dirs.shape[0])                   # hover alone infeasible
        return (zeros, zeros) if return_eta else zeros
    disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
    lam = np.where(qa > 1e-300, (-qb + np.sqrt(disc)) / (2.0 * np.maximum(qa, 1e-300)), np.inf)
    values = lam.min(axis=0)
    if not return_eta:
        return values
    attained = a0[:, :, None] + lam.min(axis=0)[None, None, :] * a1
    thrust = c_f * np.sqrt((attained**2).sum(axis=0)).sum(axis=0)
    arm_len = m.arms[0].length
    eta = values / np.maximum(arm_len * thrust, 1e-300)
    return values, np.minimum(eta, 1.0)


# ---------------------------------------------------------------------------
# Per-direction maximum wrench (polygonal LP)
# ---------------------------------------------------------------------------

def _polygon(radius: float, n_vertices: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    return radius * np.stack([np.sin(ang), np.cos(ang)], axis=1)


def max_wrench_in_direction(
    m: Morphology,
    direction,
    mode: str = "force",
    hover_force=None,
    n_polygon: int = 128,
) -> float:
    """Largest magnitude lambda with wrench lambda*direction attainable.

    Force mode requires zero torque; torque mode requires the force rows to
    equal ``hover_force`` (default zero). Infeasible directions return 0.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    blocks, radii = arm_wrench_blocks(m)
    value, _ = _radial_lp(blocks, radii, direction, mode, hover_force, n_polygon)
    return value


def _radial_lp(blocks, radii, direction, mode, hover_force, n_polygon) -> float:
    n_arms = blocks.shape[0]
    cols = []
    for a in range(n_arms):
        cols.append(blocks[a] @ _polygon(radii[a], n_polygon).T)  # 6 x K
    big = np.concatenate(cols, axis=1)  # 6 x (n_arms*K)
    n_var = big.shape[1]

    if mode == "force":
        dir6 = np.concatenate([direction, np.zeros(3)])
        b_eq = np.zeros(6)
    elif mode == "torque":
        hover = np.zeros(3) if hover_force is None else np.asarray(hover_force, dtype=float)
        dir6 = np.concatenate([np.zeros(3), direction])
        b_eq = np.concatenate([hover, np.zeros(3)])
    else:
        raise ValueError(f"unknown mode {mode!r}")

    a_eq = np.concatenate([big, -dir6[:, None]], axis=1)
    # Per-arm convex-combination budgets sum_k mu_ak <= 1.
    a_ub = np.zeros((n_arms, n_var + 1))
    for a in range(n_arms):
        a_ub[a, a * n_polygon:(a + 1) * n_polygon] = 1.0
    b_ub = np.ones(n_arms)
    c = np.zeros(n_var + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(0, None)] * (n_var + 1), method="highs")
    if not res.success:
        return 0.0, 0.0
    value = float(res.x[-1])
    # Squared-speed budget of the attained point (thrust sum = c_f * units).
    mu = res.x[:-1].reshape(n_arms, n_polygon)
    thrust_units = float((mu * radii[:, None]).sum())
    return value, thrust_units


# ---------------------------------------------------------------------------
# Batched support function (dual) for min-metrics
# ---------------------------------------------------------------------------

def support_values(
    m: Morphology,
    directions: np.ndarray,
    mode: str = "force",
    hover_force=None,
    smoothing: float = 1e-9,
    iterations: int = 60,
) -> np.ndarray:
    """Support function h(u) = max u . (force|torque) over the reachable set.

    Force mode maximizes u.f subject to tau = 0; torque mode maximizes
    u.tau subject to f = hover_force. Evaluated for all rows of
    ``directions`` at once with a damped-Newton solve of the 3-variable dual

        h(u) = min_mu  sum_a R_a ||B_a^T u + C_a^T mu||  (+ mu . hover),

    where B_a/C_a are the primal/constrained blocks of each arm map.
    min over sampled u of h(u) upper-bounds the envelope minimum and
    converges to it with direction resolution.
    """
    blocks, radii = arm_wrench_blocks(m)
    u = np.asarray(directions, dtype=float)
    if u.ndim == 1:
        u = u[None, :]
    n_dir = u.shape[0]

    if mode == "force":
        b_blk = blocks[:, :3, :]   # objective rows
        c_blk = blocks[:, 3:, :]   # constrained rows (tau = 0)
        lin = np.zeros((n_dir, 3))
    elif mode == "torque":
        b_blk = blocks[:, 3:, :]
        c_blk = blocks[:, :3, :]
        hover = np.zeros(3) if hover_force is None else np.asarray(hover_force, dtype=float)
        lin = np.broadcast_to(hover, (n_dir, 3))
    else:
        raise ValueError(f"unknown mode {mode!r}")

    scale = max(float(np.abs(blocks).max() * radii.max()), 1e-30)
    eps = smoothing * scale
    mu = np.zeros((n_dir, 3))
    # fixed terms xi0_a = B_a^T u per direction
    xi0 = np.einsum("aij,dj->dai", np.transpose(b_blk, (0, 2, 1)), u)  # (d, arms, 2)
    ct = np.transpose(c_blk, (0, 2, 1))  # (arms, 2, 3)

    lam = np.full(n_dir, 1e-8)
    value = None
    for _ in range(iterations):
        xi = xi0 + np.einsum("aij,dj->dai", ct, mu)          # (d, a, 2)
        norms = np.sqrt((xi**2).sum(axis=2) + eps**2)        # (d, a)
        value = (radii[None, :] * norms).sum(axis=1) + (lin * mu).sum(axis=1)
        w = radii[None, :] / norms                           # (d, a)
        grad = np.einsum("da,aij,dai->dj", w, ct, xi) + lin
        # Gauss-Newton Hessian: sum_a w_a ct_a' (I - xi xi^T / s^2) ct_a
        outer = np.einsum("dai,dal->dail", xi, xi) / (norms**2)[:, :, None, None]
        core = np.eye(2)[None, None] - outer
        h = np.einsum("da,aij,dail,alk->djk", w, ct, core, ct)
        h = h + lam[:, None, None] * np.eye(3)[None]
        try:
            step = np.linalg.solve(h, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = grad
        mu_new = mu - step
        xi_new = xi0 + np.einsum("aij,dj->dai", ct, mu_new)
        val_new = (radii[None, :] * np.sqrt((xi_new**2).sum(axis=2) + eps**2)).sum(axis=1) \
            + (lin * mu_new).sum(axis=1)
        improved = val_new <= value + 1e-12 * scale
        mu = np.where(improved[:, None], mu_new, mu)
        lam = np.where(improved, np.maximum(lam * 0.5, 1e-10), lam * 10.0)
        if np.abs(np.where(improved, value - val_new, 0.0)).max() < 1e-12 * scale:
            value = np.where(improved, val_new, value)
            break
        value = np.where(improved, val_new, value)
    return value


# ---------------------------------------------------------------------------
# Envelope metrics
# ---------------------------------------------------------------------------

@dataclass
class EnvelopeMetrics:
    mode: str
    min: float
    max: float
    mean: float
    volume: float
    directions: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    eta: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if not (self.min <= self.mean <= self.max):
            raise ValueError("envelope metric ordering violated")


def envelope(
    m: Morphology,
    mode: str = "force",
    n_dirs: int = 1280,
    hover_force=None,
    allocation: str = "pinv",
    n_polygon: int = 64,
    radial_fn=None,
) -> EnvelopeMetrics:
    """Radial envelope metrics over icosphere face-centroid directions.

    The volume triangulates the radial surface: each face contributes the
    origin tetrahedron of its unit triangle scaled by its centroid radius.
    ``allocation`` selects the radial model ("pinv" or "optimal");
    ``radial_fn(direction) -> float`` overrides it (used for synthetic
    checks).
    """
    if n_dirs < 100:
        raise ValueError("n_dirs must be >= 100")
    dirs, verts, faces = sample_directions(n_dirs)
    if radial_fn is not None:
        values = np.array([radial_fn(d) for d in dirs])
        eta = np.ones_like(values)
    elif allocation == "pinv":
        values, eta = pinv_radii(m, dirs, mode=mode, hover_force=hover_force,
                                 return_eta=True)
    elif allocation == "optimal":
        blocks, radii = arm_wrench_blocks(m)
        values = np.empty(len(dirs))
        eta = np.empty(len(dirs))
        lever = 1.0 if mode == "force" else m.arms[0].length
        for i, d in enumerate(dirs):
            values[i], units = _radial_lp(blocks, radii, d, mode, hover_force, n_polygon)
            thrust = m.rotor.c_f * units
            eta[i] = min(values[i] / max(lever * thrust, 1e-300), 1.0)
    else:
        raise ValueError(f"unknown allocation {allocation!r}")

    tri = verts[faces]  # (F, 3, 3)
    tet_vol = np.abs(np.linalg.det(tri)) / 6.0
    volume = float((values**3 * tet_vol).sum())
    return EnvelopeMetrics(mode=mode, min=float(values.min()), max=float(values.max()),
                           mean=float(values.mean()), volume=volume,
                           directions=dirs, values=values, eta=eta)


def min_radius(m: Morphology, mode: str = "force", n_dirs: int = 320,
               hover_force=None, allocation: str = "pinv") -> float:
    """Fast envelope minimum (batched pinv feed, or the support dual)."""
    dirs, _, _ = sample_directions(n_dirs)
    if allocation == "pinv":
        return float(pinv_radii(m, dirs, mode=mode, hover_force=hover_force).min())
    return float(support_values(m, dirs, mode=mode, hover_force=hover_force).min())


# ---------------------------------------------------------------------------
# Efficiency indices and hover sphere
# ---------------------------------------------------------------------------

def force_efficiency(f_d, rotor_thrusts) -> float:
    """||f_d|| divided by the summed rotor thrust magnitudes, in [0, 1]."""
    thrusts = np.asarray(rotor_thrusts, dtype=float)
    if np.any(thrusts < 0.0):
        raise ValueError("rotor thrust magnitudes must be non-negative")
    total = thrusts.sum()
    if total <= 0.0:
        raise ValueError("zero total thrust")
    return float(np.linalg.norm(f_d) / total)


def torque_efficiency(tau_d, rotor_thrusts, arm_length: float) -> float:
    """||tau_d|| / (l * sum of rotor thrust magnitudes)."""
    thrusts = np.asarray(rotor_thrusts, dtype=float)
    if np.any(thrusts < 0.0):
        raise ValueError("rotor thrust magnitudes must be non-negative")
    total = thrusts.sum()
    if total <= 0.0:
        raise ValueError("zero total thrust")
    return float(np.linalg.norm(tau_d) / (arm_length * total))


def _min_thrust_lp(m: Morphology, n_polygon: int) -> dict:
    """Every part of the minimum-thrust LP except b_eq, the target wrench."""
    blocks, radii = arm_wrench_blocks(m)
    n_arms = blocks.shape[0]
    cols, costs = [], []
    for a in range(n_arms):
        poly = _polygon(radii[a], n_polygon)
        cols.append(blocks[a] @ poly.T)
        costs.append(np.full(n_polygon, m.rotor.c_f * radii[a]))
    big = np.concatenate(cols, axis=1)
    a_ub = np.zeros((n_arms, big.shape[1]))
    for a in range(n_arms):
        a_ub[a, a * n_polygon:(a + 1) * n_polygon] = 1.0
    return {"c": np.concatenate(costs), "A_ub": a_ub, "b_ub": np.ones(n_arms),
            "A_eq": big, "bounds": [(0, None)] * big.shape[1]}


def _solve_min_thrust(lp: dict, wrench) -> float:
    res = linprog(b_eq=np.asarray(wrench, dtype=float), method="highs", **lp)
    if not res.success:
        return np.inf
    return float(res.fun)


def min_total_thrust(m: Morphology, wrench, n_polygon: int = 128) -> float:
    """Least summed rotor thrust that realizes the given body wrench.

    Returns inf when the wrench is unreachable.
    """
    return _solve_min_thrust(_min_thrust_lp(m, n_polygon), wrench)


def hover_sphere(m: Morphology, n_dirs: int = 320) -> dict:
    """Static-hover feasibility and best force efficiency per direction.

    Directions are candidate body-frame thrust directions; hovering along
    direction d needs force m*g*d with zero torque.
    """
    dirs, _, _ = sample_directions(n_dirs)
    mg = m.body.mass * GRAVITY
    feasible = np.zeros(len(dirs), dtype=bool)
    eta = np.zeros(len(dirs))
    lp = _min_thrust_lp(m, n_polygon=128)
    for i, d in enumerate(dirs):
        total = _solve_min_thrust(lp, np.concatenate([mg * d, np.zeros(3)]))
        if np.isfinite(total) and total > 0.0:
            feasible[i] = True
            eta[i] = mg / total
    return {"directions": dirs, "feasible": feasible, "eta_f": np.minimum(eta, 1.0)}
