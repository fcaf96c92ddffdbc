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

One batched numpy kernel answers every query of that set, S = sum_a C_a disc
with C_a = R_a B_a. The radial value along d from a base b (the hover force
in torque mode), lambda* = max{lambda : b + lambda d in S}, has a sum of
Euclidean norms as its dual: lambda* = min over d.y = 1 of
sum_a |C_a^T y| - b.y. The least thrust for a wrench w, the least
sum_a c_f R_a |u_a| with sum_a C_a u_a = w and |u_a| <= 1, is the largest
w.y - sum_a max(0, |C_a^T y| - c_f R_a). w lies inside S when its least-norm
allocation u = pinv(C) w reproduces it with every |u_a| < 1 - 2e-9, as
w / max|u_a| is then reachable; any other w is reachable when the radial value
along its own 6-D direction is at least |w|. Each direction or wrench follows
its own damped Newton path on the smoothed dual (Andersen, Christiansen,
Conn & Overton, SIAM J. Sci. Comput. 22(1), 2000; Boyd & Vandenberghe,
Convex Optimization, 11.7) and stops once the allocation read from its dual
point, after a few Newton steps on the exact optimality conditions, closes
the duality gap to 1e-10 of the value with a wrench residual under 1e-8 of
the arms' scale; one that cannot within _MAX_STEPS raises RuntimeError. The
exact values never fall below those of the LP over inscribed N-gons (the
test oracle) and, without a hover offset, exceed them by at most
1/cos(pi/N). The optimal envelope's efficiency index is lambda over (lever
x the least total thrust that attains lambda*d plus the hover force); that
allocation is unique unless the free arms' block has a null space, over
which a least-thrust solve picks it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import static_allocation
from .vehicle import GRAVITY, Morphology, RotorParams, check_real, check_vector


def __getattr__(name):
    # perfbench/tracer.py TARGETS and its tests look up envelope.linprog, which
    # nothing here calls: bind it on first lookup, so that importing the
    # package does not import scipy.optimize.
    if name != "linprog":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from scipy.optimize import linprog
    globals()["linprog"] = linprog
    return linprog


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
        # Each face (a, b, c) splits at its edge midpoints ab, bc, ca; a new vertex
        # per unique edge, numbered in order of the edge's first appearance.
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, which = np.unique(edges @ [len(verts), 1], return_index=True,
                                    return_inverse=True)
        order = np.argsort(first)
        number = len(verts) + np.argsort(order)
        mids = verts[edges[first[order]]].sum(axis=1)
        mids /= np.sqrt(mids[:, None] @ mids[..., None])[:, 0]   # np.linalg.norm's bits
        (a, b, c), (ab, bc, ca) = faces.T, number[which].reshape(-1, 3).T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], 1).reshape(-1, 3)
        verts = np.concatenate([verts, mids])
    return verts, faces


def sample_directions(n_dirs: int = 1280) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Face-centroid directions of the finest icosphere with >= n_dirs faces.

    Returns (directions, vertices, faces); directions[i] is the normalized
    centroid of faces[i].
    """
    check_real("n_dirs", n_dirs)
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

def _hover(hover_force, mode: str) -> np.ndarray:
    """The fixed body force of a mode: in torque mode a finite 3-vector, zero
    when None; force mode fixes none, so a hover_force there is rejected."""
    if mode not in ("force", "torque"):
        raise ValueError(f"unknown mode {mode!r}")
    if hover_force is None:
        return np.zeros(3)
    if mode == "force":
        raise ValueError(f"hover_force applies to torque mode only, got {hover_force!r}")
    return check_vector("hover_force", hover_force, (3,))


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
    hover = _hover(hover_force, mode)
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
# The exact disc set (optimal allocation)
# ---------------------------------------------------------------------------

_GAP, _RESIDUAL = 1e-10, 1e-8  # certified relative duality gap; relative wrench residual
_MAX_STEPS = 200                # Newton steps one batch may take before it raises
_SHRINK, _CENTRE = 0.1, 0.3     # the smoothing shrinks by _SHRINK once a row's Newton
                                # decrement is below _CENTRE times it
_POLISH = 4                     # Newton steps on the exact optimality conditions per attempt
_EDGE = 1e-9                    # relative distance within which a wrench is on the boundary


def _disc_maps(m: Morphology) -> tuple[np.ndarray, np.ndarray]:
    """(cm, k): cm (6, 2 n_arms) stacks C_a = R_a B_a; k[a] = c_f R_a is arm a's full thrust."""
    blocks, radii = arm_wrench_blocks(m)
    return np.concatenate(blocks * radii[:, None, None], axis=1), m.rotor.c_f * radii


def _gram(cm, a, b, vh) -> np.ndarray:
    """sum_a C_a (a_a I + b_a vh_a vh_a^T) C_a^T per row, (R, 6, 6)."""
    c0, c1 = cm[:, 0::2].T, cm[:, 1::2].T
    outer = np.stack([c0[:, :, None] * c0[:, None, :], c1[:, :, None] * c1[:, None, :],
                      c0[:, :, None] * c1[:, None, :] + c1[:, :, None] * c0[:, None, :]], 1)
    m = np.stack([a + b * vh[..., 0]**2, a + b * vh[..., 1]**2, b * vh[..., 0] * vh[..., 1]], -1)
    return (m.reshape(len(m), -1) @ outer.reshape(-1, 36)).reshape(-1, 6, 6)


def _smoothed(cm, kappa, c, y, eps, derivatives=True):
    """F(y) = sum_a phi(C_a^T y) - c.y and, optionally, its gradient and Hessian.

    phi = (z + sqrt(z^2 + eps^2)) / 2 with z = sqrt(|v|^2 + eps^2) - kappa_a
    lies within eps above max(0, |v| - kappa_a).
    """
    v = (y @ cm).reshape(len(y), -1, 2)
    e = eps[:, None]
    rho = np.sqrt((v * v).sum(-1) + e * e)
    z = rho - kappa
    q = np.sqrt(z * z + e * e)
    f = 0.5 * (z + q).sum(-1) - (c * y).sum(-1)
    if not derivatives:
        return f
    d1 = 0.5 * (1.0 + z / q)                   # dphi/drho, in (0, 1)
    grad = (d1[..., None] * v / rho[..., None]).reshape(len(y), -1) @ cm.T - c
    return f, grad, _gram(cm, d1 / rho, 0.5 * e * e / q**3 - d1 / rho, v / rho[..., None])


def _solve(cm, k, c, d=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radial values along the rows of d from c (kappa = 0), or without d the
    least thrusts that realize the rows of c (kappa = k), each certified.

    Returns (lam, y, thrust): lam is 0 without d or where no lambda >= 0 is
    reachable, y the certifying dual point (d.y = 1), thrust the certified
    allocation's summed thrust or, where the free arms' block has a null
    space, the least one over it. A row's steps depend on that row alone.
    """
    n, radial, e1 = len(k), d is not None, np.array([1.0, 0.0])
    kappa = 0.0 if radial else k
    arm = np.linalg.norm(cm.reshape(6, n, 2), axis=(0, 2))
    d = d if radial else np.zeros_like(c)
    lam, thrust, y, loose = np.zeros(len(c)), np.zeros(len(c)), d.copy(), []
    start = 0.2 * np.linalg.norm(cm, axis=0).mean()
    eps, rows = np.full(len(c), start), np.arange(len(c))

    def local(y, kink):
        # t = |C_a^T y|, its unit vector vh (0 where t = 0), C_a vh, and C_a P_a for
        # a kink arm's u_a = P_a s_a: s_a itself when kappa_a = 0, s_a[0] vh_a otherwise
        v = (y @ cm).reshape(len(y), n, 2)
        t = np.linalg.norm(v, axis=-1)
        vh = v / np.where(t > 0.0, t, 1.0)[..., None]
        cvh = np.einsum("iaj,raj->ria", cm.reshape(6, n, 2), vh)
        cp = cm if radial else np.stack([cvh, 0.0 * cvh], -1).reshape(len(y), 6, -1)
        return t, vh, cvh, cp * np.repeat(kink, 2, axis=1)[:, None, :]

    def polish(y, kink, full, dr, cr):
        # Newton on sum_full C_a vh_a + sum_kink C_a P_a s_a - lambda d = c,
        # P_a^T C_a^T y = (kappa_a, 0) on the kink arms and d.y = 1 (or
        # lambda = 0), the slots no arm uses held at 0. A tiny quasi-definite
        # shift keeps a row with a non-unique solution solvable.
        held = np.stack([~kink, ~kink | (not radial)], -1).reshape(len(y), -1)
        j = np.zeros((len(y), 7 + 2 * n, 7 + 2 * n))
        j[:, :6, -1], j[:, -1, :6], j[:, -1, -1] = -dr, dr, not radial
        j[:, 6:-1, 6:-1] = np.eye(2 * n) * held[:, None, :]
        x = np.zeros((len(y), 2 * n + 1))
        x[:, :-1:2] = 0.5 * (kink & (not radial))       # sharing arms start half on
        for _ in range(_POLISH):
            t, vh, cvh, cp = local(y, kink)
            bend = (np.where(full, 1.0, kink * (not radial) * x[:, :-1:2])
                    / np.where(t > 0.0, t, 1.0))
            j[:, :6, :6], j[:, :6, 6:-1], j[:, 6:-1, :6] = (_gram(cm, bend, -bend, vh), cp,
                                                            cp.transpose(0, 2, 1))
            arms = kink[..., None] * ((y @ cm).reshape(len(y), n, 2) if radial
                                      else (t - kappa)[..., None] * e1)
            r = np.concatenate([(cvh * full[:, None, :]).sum(-1) - x[:, -1:] * dr - cr
                                + np.einsum("rij,rj->ri", cp, x[:, :-1]),
                                arms.reshape(len(y), -1) + held * x[:, :-1],
                                (dr * y).sum(-1, keepdims=True) - 1.0 if radial else x[:, -1:]], 1)
            shift = (1e-12 * np.abs(j).max(axis=(1, 2))[:, None]
                     * np.r_[np.ones(6), -np.ones(2 * n + 1)])
            step = np.linalg.solve(j + shift[:, :, None] * np.eye(7 + 2 * n), -r[..., None])[..., 0]
            y, x = y + step[:, :6], x + step[:, 6:]
        return y / (dr * y).sum(-1, keepdims=True) if radial else y

    def primal(y, kink, full, dr, cr):
        # The least-norm kink slots and lambda given the full arms: ok, x, |u_a|,
        # the dual value and the block's rank.
        t, vh, cvh, cp = local(y, kink)
        block, rhs = np.concatenate([cp, -dr[:, :, None]], 2), cr - (cvh * full[:, None, :]).sum(-1)
        u, s, vt = np.linalg.svd(block, full_matrices=False)
        keep = s > 1e-10 * s[:, :1]
        x = np.einsum("rji,rj->ri", vt, np.where(keep, 1.0 / np.maximum(s, 1e-300), 0.0)
                      * np.einsum("rji,rj->ri", u, rhs))
        dual = np.maximum(t - kappa, 0.0).sum(-1) - (cr * y).sum(-1)

        def check(x):
            fits = (np.linalg.norm(np.einsum("rij,rj->ri", block, x) - rhs, axis=-1)
                    <= _RESIDUAL * arm.sum())
            s = x[:, :-1].reshape(len(y), n, 2)
            size = np.where(full, 1.0, kink * (np.linalg.norm(s, axis=-1) if radial
                                               else np.abs(s[..., 0])))
            value = x[:, -1] if radial else -(size @ k)
            return ((dual - value <= _GAP * np.maximum(np.abs(value), 1e-6 * arm.sum()))
                    & fits & (size.max(-1) <= 1.0 + 1e-9)), size, fits

        ok, size, fits = check(x)
        # A kink arm's least-thrust slot scales u_a = s_a vh_a, and the thrust sum_a k_a s_a
        # = rhs.y holds over the whole affine set of slots, so where the least-norm slots fit
        # but leave [0, 1] a box point certifies alike (none fits better than least squares).
        outside = ~ok & fits & (kink & ((x[:, :-1:2] < 0.0) | (x[:, :-1:2] > 1.0))).any(-1)
        if not radial and outside.any():
            i = np.flatnonzero(outside)
            x[i, :-1:2] = np.where(kink[i], _box_lsq(cvh[i] * kink[i, None], rhs[i]), x[i, :-1:2])
            ok, size, _ = check(x)
        return ok, x, size, dual, keep.sum(-1)

    def certify(rows, y, eps):
        dr, cr = d[rows], c[rows]
        y = y / (dr * y).sum(-1, keepdims=True) if radial else y
        t = np.linalg.norm((y @ cm).reshape(len(y), n, 2), axis=-1)
        tau = np.sqrt(eps[:, None] * arm)
        kink, full = np.abs(t - kappa) <= tau, t - kappa > tau
        empty = radial & (t.sum(-1) - (cr * y).sum(-1) <= 0.0)
        y_p = polish(y, kink, full, dr, cr)
        ok, x, size, dual, rank = primal(y_p, kink, full, dr, cr)
        i = np.flatnonzero(~ok & ~empty)    # where the polished point fails, the smoothed may hold
        if i.size:
            y_p[i] = y[i]
            ok[i], x[i], size[i], dual[i], rank[i] = primal(y[i], kink[i], full[i], dr[i], cr[i])
        ok |= empty
        y_p[empty] = y[empty]
        lam[rows[ok]] = np.where(empty | (not radial), 0.0, np.minimum(x[:, -1], dual))[ok]
        thrust[rows[ok]] = np.where(empty, 0.0, size @ k)[ok]
        for i in np.flatnonzero(ok & ~empty & radial & (rank < 2 * kink.sum(-1) + 1)):
            cols = np.repeat(kink[i], 2)
            loose.append((rows[i], kink[i], cm[:, cols] @ x[i, :-1][cols]))
        return ok, y_p

    for _ in range(_MAX_STEPS):
        if not rows.size:
            break
        yr, er, cr = y[rows], eps[rows], c[rows]
        f0, g, h = _smoothed(cm, kappa, cr, yr, er)
        kkt = np.zeros((len(rows), 7, 7))      # with d, steps keep d.y = 1
        # A vehicle whose blocks span less than R^6 leaves h singular.
        kkt[:, :6, :6] = h + (1e-13 * np.trace(h, axis1=1, axis2=2))[:, None, None] * np.eye(6)
        kkt[:, :6, 6] = kkt[:, 6, :6] = d[rows]
        kkt[:, 6, 6] = not radial
        step = np.linalg.solve(kkt, -np.concatenate([g, 0.0 * g[:, :1]], 1)[..., None])[:, :6, 0]
        slope, t = (g * step).sum(-1), np.ones(len(rows))
        for _ in range(40):
            trial = _smoothed(cm, kappa, cr, yr + t[:, None] * step, er, False)
            worse = trial > f0 + 0.25 * t * slope
            if not worse.any():
                break
            t[worse] *= 0.5
        y[rows] = yr + t[:, None] * step
        # A negative value proves an empty ray, since F lies below its smoothing.
        centred = np.flatnonzero((-slope <= _CENTRE * er) | ((f0 < 0.0) & radial))
        done = np.zeros(len(rows), bool)
        if centred.size:
            done[centred], y_p = certify(rows[centred], y[rows[centred]], er[centred])
            y[rows[centred[done[centred]]]] = y_p[done[centred]]
        eps[rows[centred]] = np.maximum(_SHRINK * er[centred], 1e-12 * start)
        rows = rows[~done]
    if rows.size:
        raise RuntimeError(f"{rows.size} disc-set queries not certified within {_MAX_STEPS} steps")
    if loose:                           # one least-thrust call per free-arm pattern
        at, free, wrench = map(np.array, zip(*loose))
        for arms in np.unique(free, axis=0):
            same, cols = (free == arms).all(-1), np.repeat(arms, 2)
            thrust[at[same]] = k[~arms].sum() + _min_thrusts(cm[:, cols], k[arms], wrench[same])
    return lam, y, thrust


def _box_lsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x in [0, 1]^n least squares for a x = b per row, a (R, m, n); a zero column stays 0.

    The bounded-variable active-set method (Stark & Parker, Comput. Stat. 10(2), 1995) on
    every row at once: free the bound variable whose gradient points furthest into the box,
    solve the free variables' least-norm problem, and step back to the first bound it crosses.
    """
    n = a.shape[2]
    x, free = np.zeros((len(a), n)), np.zeros((len(a), n), bool)
    tol = 1e-13 * np.linalg.norm(a, axis=(1, 2)) * np.maximum(np.linalg.norm(b, axis=1), 1e-300)
    for _ in range(3 * n + 3):
        g = np.einsum("rij,ri->rj", a, b - np.einsum("rij,rj->ri", a, x))   # descent direction
        wants = ~free & np.where(x <= 0.0, g > tol[:, None], g < -tol[:, None])
        i = np.flatnonzero(wants.any(-1))      # a row with none is done: nothing moves it
        if not i.size:
            break
        free[i, np.argmax(np.where(wants[i], np.abs(g[i]), -1.0), -1)] = True
        while i.size:
            f, xi = free[i], x[i]
            u, s, vt = np.linalg.svd(a[i] * f[:, None], full_matrices=False)
            p = np.einsum("rji,rj->ri", u, b[i] - np.einsum("rij,rj->ri", a[i] * ~f[:, None], xi))
            z = np.where(f, np.einsum("rji,rj->ri", vt, np.where(s > 1e-15 * s[:, :1], p, 0.0)
                                      / np.maximum(s, 1e-300)), xi)
            over = f & ((z <= 0.0) | (z >= 1.0))
            inside = ~over.any(-1)
            x[i[inside]] = z[inside]
            i, xi, z, over = i[~inside], xi[~inside], z[~inside], over[~inside]
            bound, r = np.where(z <= 0.0, 0.0, 1.0), np.arange(len(i))
            frac = np.where(over, (bound - xi) / np.where(over, z - xi, 1.0), np.inf)
            j = np.argmin(frac, -1)              # the first bound the segment x -> z meets
            xi = np.clip(xi + np.clip(frac[r, j], 0.0, 1.0)[:, None] * (z - xi), 0.0, 1.0)
            xi[r, j] = bound[r, j]
            x[i], free[i] = xi, free[i] & (xi > 0.0) & (xi < 1.0)
            i = i[free[i].any(-1)]
    return x


def _min_thrusts(cm, k, wrenches) -> np.ndarray:
    """Least summed rotor thrust per wrench row; inf where unreachable.

    A row is inner when its least-norm allocation u = pinv(cm) w reproduces w
    with every |u_a| < 1 - 2 _EDGE: w / max|u_a| is then reachable, so |w| /
    lambda* <= max|u_a|. Any other w is reachable when the radial value along
    its own 6-D direction is at least |w|; within _EDGE of it, w is on the
    boundary, where the radial solve's own least thrust answers.
    """
    norm = np.linalg.norm(wrenches, axis=1)
    u = np.linalg.lstsq(cm, wrenches.T, rcond=None)[0].T
    inner = ((norm > 0.0) & (np.linalg.norm(u @ cm.T - wrenches, axis=1) <= _RESIDUAL * norm)
             & (np.linalg.norm(u.reshape(len(u), len(k), 2), axis=-1).max(-1) < 1.0 - 2.0 * _EDGE))
    totals, rows = np.where(norm > 0.0, np.inf, 0.0), np.flatnonzero((norm > 0.0) & ~inner)
    if rows.size:
        lam, _, thrust = _solve(cm, k, 0.0 * wrenches[rows], wrenches[rows] / norm[rows, None])
        ratio = norm[rows] / np.maximum(lam, 1e-300)
        edge = np.abs(ratio - 1.0) <= _EDGE
        totals[rows[edge]] = thrust[edge] * ratio[edge]
        inner[rows[ratio < 1.0 - _EDGE]] = True
    totals[inner] = _solve(cm, k, wrenches[inner])[2]
    return totals


def _optimal_radii(m: Morphology, dirs: np.ndarray, mode: str,
                   hover_force) -> tuple[np.ndarray, np.ndarray]:
    """Largest attainable magnitude and its efficiency index per direction.

    eta = lambda / (lever * thrust), with thrust the least total thrust that
    attains lambda*d (plus the hover force in torque mode) and lever 1 for
    force, ``_torque_lever`` for torque. Infeasible directions get 0 for both.
    """
    d6, base = np.zeros((len(dirs), 6)), np.zeros((len(dirs), 6))
    base[:, :3] = _hover(hover_force, mode)
    if mode == "force":
        d6[:, :3], lever = dirs, 1.0
    else:
        d6[:, 3:], lever = dirs, _torque_lever(m)
    cm, k = _disc_maps(m)
    values, _, thrust = _solve(cm, k, base, d6)
    eta = np.where(values > 0.0, values / (lever * np.where(values > 0.0, thrust, 1.0)), 0.0)
    return values, np.minimum(eta, 1.0)


def max_wrench_in_direction(m: Morphology, direction, mode: str = "force",
                            hover_force=None) -> float:
    """Largest magnitude lambda with wrench lambda*direction attainable.

    Force mode requires zero torque; torque mode requires the force rows to
    equal ``hover_force`` (default zero). Infeasible directions return 0.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-8:
        raise ValueError("direction must be a unit vector")
    return float(_optimal_radii(m, direction[None, :], mode, hover_force)[0][0])


def min_total_thrust(m: Morphology, wrench) -> float:
    """Least summed rotor thrust that realizes the given body wrench; inf if unreachable."""
    wrench = np.asarray(wrench, dtype=float)
    return float(_min_thrusts(*_disc_maps(m), wrench[None, :])[0])


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


def envelope(m: Morphology, mode: str = "force", n_dirs: int = 1280, hover_force=None,
             allocation: str = "pinv") -> EnvelopeMetrics:
    """Radial envelope metrics over icosphere face-centroid directions.

    The volume triangulates the radial surface: each face contributes the
    origin tetrahedron of its unit triangle scaled by its centroid radius.
    ``allocation`` selects the radial model ("pinv" or "optimal").
    """
    check_real("n_dirs", n_dirs, 100.0)
    dirs, verts, faces = sample_directions(n_dirs)
    if allocation == "pinv":
        values, eta = pinv_radii(m, dirs, mode=mode, hover_force=hover_force, return_eta=True)
    elif allocation == "optimal":
        values, eta = _optimal_radii(m, dirs, mode, hover_force)
    else:
        raise ValueError(f"unknown allocation {allocation!r}")

    volume = float((values**3 * (np.abs(np.linalg.det(verts[faces])) / 6.0)).sum())
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
    totals = _min_thrusts(*_disc_maps(m), np.c_[mg * dirs, np.zeros_like(dirs)])
    feasible = np.isfinite(totals) & (totals > 0.0)
    eta = np.where(feasible, mg / np.where(feasible, totals, 1.0), 0.0)
    return {"directions": dirs, "feasible": feasible, "eta_f": np.minimum(eta, 1.0)}
