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
  reachable wrench set is the Minkowski sum of the arm discs mapped by
  their 6x2 blocks B_a. The flat hexarotor's optimal ratio is sqrt(3).

One linear program answers every query of that set. Each disc is replaced
by its inscribed regular N-gon, whose vertices p_ak become the columns
B_a p_ak with weights mu_ak >= 0, sum_k mu_ak <= 1 per arm, and thrust cost
c_f R_a mu_ak. The radial value maximizes lambda with sum mu B p = lambda d
(plus the hover force in torque mode); the minimum thrust minimizes the
cost with sum mu B p equal to the wrench. Each N-gon lies inside its disc
and holds cos(pi/N) of it, so the radial value never exceeds the disc
optimum and, without a hover offset, lies at most 1 - cos(pi/N) below it
(1.2e-3 at N = 64, 3.0e-4 at N = 128); the minimum thrust never falls below
the disc's.

Each query builds one HiGHS model of its LP, through the binding that
scipy's own HiGHS ``linprog`` method drives, and re-solves it once per
direction or wrench: only the -d column or the equality right-hand side
moves, and the dual simplex starts from the previous basis. At the largest
lambda the optimal mu is in general not unique, so the efficiency index of
the optimal envelope is defined by the least total thrust that attains
lambda*d, which a second warm model finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
# Unused here: bound because perfbench/tracer.py TARGETS and its tests look up envelope.linprog.
from scipy.optimize import linprog  # noqa: F401
from scipy.optimize._highspy import _core as _highs

from .allocation import static_allocation
from .vehicle import GRAVITY, Morphology, RotorParams


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
    if not float(n_dirs).is_integer():
        raise ValueError(f"n_dirs must be a whole number, got {n_dirs!r}")
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

def _hover(hover_force) -> np.ndarray:
    """The torque mode's fixed body force: a finite 3-vector, zero when None."""
    if hover_force is None:
        return np.zeros(3)
    hover = np.asarray(hover_force, dtype=float)
    if hover.shape != (3,) or not np.all(np.isfinite(hover)):
        raise ValueError(f"hover_force must be a finite 3-vector, got {hover_force!r}")
    return hover


def _torque_lever(m: Morphology) -> float:
    """The longest arm l_max: the thrusts' moment |sum r x f| is at most l_max * sum |f|."""
    return m.arm_lengths.max()


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
    return radii_from_pinv(np.linalg.pinv(static_allocation(m)), dirs, m.rotor, mode,
                           hover_force, return_eta, _torque_lever(m))


def radii_from_pinv(a_inv: np.ndarray, dirs: np.ndarray, rotor: RotorParams,
                    mode: str = "force", hover_force=None, return_eta: bool = False,
                    lever: float = 1.0):
    """The radii of ``pinv_radii`` from an already factored a_inv = pinv(A).

    a_inv may stack the pseudoinverses of several vehicles, (..., 2 n_r, 6);
    the values (and efficiency indices) then come per vehicle, (..., D).
    ``lever`` is the torque efficiency index's l_max.
    """
    w_max2 = rotor.omega_max**2
    c_f = rotor.c_f
    if mode == "force":
        wt = a_inv[..., :3] @ dirs.T                     # (..., 2 n_r, D)
        pairs = np.hypot(wt[..., 0::2, :], wt[..., 1::2, :])
        worst = pairs.max(axis=-2)
        values = np.where(worst > 0.0, w_max2 / np.maximum(worst, 1e-300), np.inf)
        if not return_eta:
            return values
        # eta_f = ||f|| / sum thrust = 1 / (c_f * sum per-rotor pairs)
        eta = 1.0 / np.maximum(c_f * pairs.sum(axis=-2), 1e-300)
        return values, np.minimum(eta, 1.0)
    if mode != "torque":
        raise ValueError(f"unknown mode {mode!r}")
    hover = _hover(hover_force)
    w0 = a_inv @ np.concatenate([hover, np.zeros(3)])
    dw = a_inv[..., 3:] @ dirs.T
    a0 = np.stack([w0[..., 0::2], w0[..., 1::2]])          # (2, ..., n_r)
    a1 = np.stack([dw[..., 0::2, :], dw[..., 1::2, :]])    # (2, ..., n_r, D)
    # Per rotor, ||a0 + lam a1|| = w_max2 gives the saturating quadratic.
    qa = (a1**2).sum(axis=0)
    qb = 2.0 * (a0[..., None] * a1).sum(axis=0)
    qc = ((a0**2).sum(axis=0) - w_max2**2)[..., None]
    disc = np.maximum(qb * qb - 4.0 * qa * qc, 0.0)
    lam = np.where(qa > 1e-300, (-qb + np.sqrt(disc)) / (2.0 * np.maximum(qa, 1e-300)), np.inf)
    values = lam.min(axis=-2)
    hover_alone_fails = np.any(qc > 0.0, axis=(-2, -1))[..., None]
    if not return_eta:
        return np.where(hover_alone_fails, 0.0, values)
    attained = a0[..., None] + values[..., None, :] * a1
    thrust = c_f * np.sqrt((attained**2).sum(axis=0)).sum(axis=-2)
    eta = np.minimum(values / np.maximum(lever * thrust, 1e-300), 1.0)
    return np.where(hover_alone_fails, 0.0, values), np.where(hover_alone_fails, 0.0, eta)


# ---------------------------------------------------------------------------
# The polygonal disc LP (optimal allocation)
# ---------------------------------------------------------------------------

# Vertices per arm disc in envelope sweeps (1,280 directions in a full
# sweep): a 128-gon sweep costs about 2.4x as much.
_SWEEP_VERTICES = 64
# Vertices per arm disc in point queries and the hover sphere: with 64, the
# flat hexarotor's best hover efficiency next to +z drops to 0.99885.
_POINT_VERTICES = 128


def _disc_lp(m: Morphology, n_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns, budget rows and column thrust costs of the polygonized disc LP.

    Returns (cols, budget, cost): cols (6, n_arms*N) stacks each arm's block
    B_a applied to the vertices of the N-gon inscribed in its disc, budget
    (n_arms, n_arms*N) holds the rows of sum_k mu_ak <= 1, and cost[k] is
    column k's thrust, c_f times its disc radius.
    """
    blocks, radii = arm_wrench_blocks(m)
    ang = 2.0 * np.pi * np.arange(n_vertices) / n_vertices
    unit = np.stack([np.sin(ang), np.cos(ang)], axis=1)
    cols = np.concatenate([b @ (r * unit).T for b, r in zip(blocks, radii)], axis=1)
    budget = np.kron(np.eye(len(radii)), np.ones(n_vertices))
    return cols, budget, m.rotor.c_f * np.repeat(radii, n_vertices)


_DUAL_SIMPLEX = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
_PRIMAL_SIMPLEX = int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)


class _WarmLp:
    """One HiGHS model of min cost.x s.t. a_eq x = b_eq, budget x <= 1, x >= 0.

    Between solves a caller moves one column (``set_column``) or the equality
    right-hand side (``set_rhs``). With presolve off, each solve warm-starts
    the dual simplex from the previous basis; a fresh model per query keeps
    every result independent of what ran before the query. The solver's own
    primal values carry update round-off (about 1e-11 relative) that depends
    on the path to the final basis, so ``solve`` recomputes x from that basis
    and a dense copy of the constraints.

    ``ceiling`` must exceed every feasible objective value. The dual simplex
    keeps a lower bound on the optimum, so once that passes the ceiling the
    LP is infeasible: this certificate ends the many infeasible solves whose
    dual ray HiGHS would otherwise fail to confirm ("Unknown" status).
    """

    def __init__(self, cost: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray,
                 budget: np.ndarray, ceiling: float):
        self.a = np.concatenate([a_eq, budget])
        # Nonbasic rows sit at these values: b_eq, or the budget of 1.
        self.bound = np.concatenate([b_eq, np.ones(len(budget))])
        a = sparse.csc_array(self.a)
        lp = _highs.HighsLp()
        lp.num_row_, lp.num_col_ = a.shape
        lp.col_cost_ = cost
        lp.col_lower_ = np.zeros(a.shape[1])
        lp.col_upper_ = np.full(a.shape[1], np.inf)
        lp.row_lower_ = np.concatenate([b_eq, np.full(len(budget), -np.inf)])
        lp.row_upper_ = self.bound.copy()
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.a_matrix_.num_row_, lp.a_matrix_.num_col_ = a.shape
        lp.a_matrix_.start_ = a.indptr
        lp.a_matrix_.index_ = a.indices
        lp.a_matrix_.value_ = a.data
        self.model = _highs._Highs()
        self.model.setOptionValue("output_flag", False)
        self.model.setOptionValue("presolve", "off")
        self.model.setOptionValue("objective_bound", ceiling)
        self.model.passModel(lp)

    def set_column(self, col: int, rows: range, values: np.ndarray) -> None:
        for row, value in zip(rows, values):
            self.model.changeCoeff(row, col, value)
        self.a[rows, col] = values

    def set_rhs(self, b_eq: np.ndarray) -> None:
        for row, value in enumerate(b_eq):
            self.model.changeRowBounds(row, value, value)
        self.bound[:len(b_eq)] = b_eq

    def solve(self) -> np.ndarray | None:
        """The optimal x, or None if the LP is infeasible.

        A solve that still ends "Unknown" is repeated once from a cold start
        with the primal simplex. Any status other than optimal, infeasible or
        the ceiling certificate raises RuntimeError.
        """
        status = self._run()
        if status == _highs.HighsModelStatus.kUnknown:
            self.model.clearSolver()
            self.model.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
            status = self._run()
            self.model.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
        if status in (_highs.HighsModelStatus.kInfeasible,
                      _highs.HighsModelStatus.kObjectiveBound):
            return None
        if status != _highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"disc LP solve ended with HiGHS model status "
                               f"{self.model.modelStatusToString(status)!r}")
        # Basic columns j >= 0 and basic rows -1-i, each in ascending order so
        # that one basis always gives the same bits.
        basic = np.sort(self.model.getBasicVariables()[1])
        cols, rows = basic[basic >= 0], -1 - basic[basic < 0]
        n_rows = len(self.a)
        lhs = np.concatenate([self.a[:, cols], -np.eye(n_rows)[:, rows]], axis=1)
        rhs = self.bound.copy()
        rhs[rows] = 0.0
        x = np.zeros(self.a.shape[1])
        x[cols] = np.linalg.solve(lhs, rhs)[:len(cols)]
        return x

    def _run(self):
        self.model.run()
        return self.model.getModelStatus()


def _min_thrusts(lp: tuple, wrenches: np.ndarray) -> np.ndarray:
    """Least summed rotor thrust per wrench row of one disc LP; inf where unreachable."""
    cols, budget, cost = lp
    # No feasible point thrusts more than every arm at its costliest vertex.
    model = _WarmLp(cost, cols, np.zeros(len(cols)), budget, 2.0 * len(budget) * cost.max())
    totals = np.full(len(wrenches), np.inf)
    for i, w in enumerate(wrenches):
        model.set_rhs(w)
        x = model.solve()
        if x is not None:
            totals[i] = cost @ x
    return totals


def _optimal_radii(m: Morphology, dirs: np.ndarray, mode: str, hover_force,
                   n_vertices: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest attainable magnitude and its efficiency index per direction.

    The magnitude lambda is the largest weight of the -d column. At that
    maximum the optimal mu is in general not unique, so the efficiency index
    is defined by the least total thrust that attains lambda*d (plus the
    hover force in torque mode), found by a second warm model:
    eta = lambda / (lever * thrust), with lever 1 for force and
    ``_torque_lever`` for torque. Infeasible directions get 0 for both.
    """
    if mode == "force":
        rows, b_eq = range(0, 3), np.zeros(6)
    elif mode == "torque":
        rows, b_eq = range(3, 6), np.concatenate([_hover(hover_force), np.zeros(3)])
    else:
        raise ValueError(f"unknown mode {mode!r}")
    lp = _disc_lp(m, n_vertices)
    cols, budget, _ = lp
    n = cols.shape[1]
    # Column n carries lambda; its entries in the equality rows are -d.
    # The objective is -lambda <= 0; at a ceiling of 0 a feasible lambda of
    # exactly 0 may read as infeasible, which gives the same 0.
    model = _WarmLp(np.r_[np.zeros(n), -1.0], np.concatenate([cols, np.zeros((6, 1))], axis=1),
                    b_eq, np.concatenate([budget, np.zeros((len(budget), 1))], axis=1), 0.0)
    values = np.zeros(len(dirs))
    for i, d in enumerate(dirs):
        model.set_column(n, rows, -d)
        x = model.solve()
        if x is not None:
            values[i] = x[n]
    reached = values > 0.0
    d6 = np.zeros((reached.sum(), 6))
    d6[:, rows] = values[reached, None] * dirs[reached]
    thrust = _min_thrusts(lp, b_eq + d6)
    lever = 1.0 if mode == "force" else _torque_lever(m)
    eta = np.zeros(len(dirs))
    eta[reached] = np.minimum(values[reached] / (lever * thrust), 1.0)
    return values, eta


def max_wrench_in_direction(m: Morphology, direction, mode: str = "force",
                            hover_force=None) -> float:
    """Largest magnitude lambda with wrench lambda*direction attainable.

    Force mode requires zero torque; torque mode requires the force rows to
    equal ``hover_force`` (default zero). Infeasible directions return 0.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    values, _ = _optimal_radii(m, direction[None, :], mode, hover_force, _POINT_VERTICES)
    return float(values[0])


def min_total_thrust(m: Morphology, wrench) -> float:
    """Least summed rotor thrust that realizes the given body wrench.

    Returns inf when the wrench is unreachable.
    """
    wrench = np.asarray(wrench, dtype=float)
    return float(_min_thrusts(_disc_lp(m, _POINT_VERTICES), wrench[None, :])[0])


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
    eta: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (self.min <= self.mean <= self.max):
            raise ValueError("envelope metric ordering violated")


def envelope(
    m: Morphology,
    mode: str = "force",
    n_dirs: int = 1280,
    hover_force=None,
    allocation: str = "pinv",
) -> EnvelopeMetrics:
    """Radial envelope metrics over icosphere face-centroid directions.

    The volume triangulates the radial surface: each face contributes the
    origin tetrahedron of its unit triangle scaled by its centroid radius.
    ``allocation`` selects the radial model ("pinv" or "optimal").
    """
    if not n_dirs >= 100:
        raise ValueError(f"n_dirs must be at least 100, got {n_dirs!r}")
    dirs, verts, faces = sample_directions(n_dirs)
    if allocation == "pinv":
        values, eta = pinv_radii(m, dirs, mode=mode, hover_force=hover_force,
                                 return_eta=True)
    elif allocation == "optimal":
        values, eta = _optimal_radii(m, dirs, mode, hover_force, _SWEEP_VERTICES)
    else:
        raise ValueError(f"unknown allocation {allocation!r}")

    tri = verts[faces]  # (F, 3, 3)
    tet_vol = np.abs(np.linalg.det(tri)) / 6.0
    volume = float((values**3 * tet_vol).sum())
    return EnvelopeMetrics(mode=mode, min=float(values.min()), max=float(values.max()),
                           mean=float(values.mean()), volume=volume,
                           directions=dirs, values=values, eta=eta)


# ---------------------------------------------------------------------------
# Hover sphere
# ---------------------------------------------------------------------------

def hover_sphere(m: Morphology, n_dirs: int = 320) -> dict:
    """Static-hover feasibility and best force efficiency per direction.

    Directions are candidate body-frame thrust directions; hovering along
    direction d needs force m*g*d with zero torque.
    """
    dirs, _, _ = sample_directions(n_dirs)
    mg = m.body.mass * GRAVITY
    totals = _min_thrusts(_disc_lp(m, _POINT_VERTICES),
                          np.concatenate([mg * dirs, np.zeros((len(dirs), 3))], axis=1))
    feasible = np.isfinite(totals) & (totals > 0.0)
    eta = np.zeros(len(dirs))
    eta[feasible] = mg / totals[feasible]
    return {"directions": dirs, "feasible": feasible, "eta_f": np.minimum(eta, 1.0)}
