"""Differential actuator allocation with null-space task prioritization.

Wrench-rate commands map to the 18 differential actuator commands
u_tilde = [omega_dot; alpha_dot] through the Jacobian of the static
allocation chain, A_tilde = A * d(omega_tilde)/d[omega; alpha]. The solve
satisfies the wrench-rate equality exactly while staying closest to a
preferred command u_tilde* in the weighted norm

    J = (u - u*)' W (u - u*),      W = blkdiag(I, k_alpha I),

whose minimizer is u* + W^-1 A~'(A~ W^-1 A~')^-1 (w_dot - A~ u*). Larger
k_alpha therefore uses the tilt rates less. u_tilde* implements arm
unwinding toward pseudoinverse-optimal targets at fixed speeds, and an
optional tilt bias breaks thrust colinearity to keep the instantaneous
allocation well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .allocation import (condition_number, instantaneous_allocation, invert_static,
                         static_allocation)
from .envelope import sample_directions
from .vehicle import GRAVITY, Morphology, RigidBodyParams

REGULARIZATION_CONDITION = 1e12


@dataclass(frozen=True)
class AllocationConfig:
    k_alpha: float = 1000.0
    #: Fixed unwinding speeds: tilt rate [rad/s] and rotor acceleration [rad/s^2].
    v_alpha_dot: float = 1.0
    v_omega_dot: float = 250.0
    home_alpha: float = 0.0
    #: Arms unwound concurrently; the rest park until released. Their rotors
    #: ramp down first so the tilt motion costs no wrench authority.
    max_unwind_arms: int = 3
    unwind_engage: float = 0.3
    unwind_release: float = 0.02


@dataclass(frozen=True)
class BiasConfig:
    enabled: bool = False
    delta: float = 0.15
    colinearity_tol: float = 0.1


def build_diff_allocation(a: np.ndarray, omega_c: np.ndarray, alpha_c: np.ndarray,
                          arm_of_rotor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A_tilde, dA): chain-rule Jacobian of A @ omega_tilde at the commands.

    Rows of dA per rotor r on arm a:
        d(w^2 sin a) = 2 w sin(a) dw + w^2 cos(a) da
        d(w^2 cos a) = 2 w cos(a) dw - w^2 sin(a) da
    """
    omega_c = np.asarray(omega_c, dtype=float)
    alpha_c = np.asarray(alpha_c, dtype=float)
    if np.any(omega_c < 0.0):
        raise ValueError("rotor speed commands must be non-negative")
    arm_of_rotor = np.asarray(arm_of_rotor)
    n_r = omega_c.size
    n_arms = alpha_c.size
    d_a = np.zeros((2 * n_r, n_r + n_arms))
    a_r = alpha_c[arm_of_rotor]
    sin_a, cos_a = np.sin(a_r), np.cos(a_r)
    rows = np.arange(n_r)
    d_a[2 * rows, rows] = 2.0 * omega_c * sin_a
    d_a[2 * rows + 1, rows] = 2.0 * omega_c * cos_a
    d_a[2 * rows, n_r + arm_of_rotor] = omega_c**2 * cos_a
    d_a[2 * rows + 1, n_r + arm_of_rotor] = -(omega_c**2) * sin_a
    return a @ d_a, d_a


def exact_wrench_rate(j_w_des: np.ndarray, psi_dot_des_b: np.ndarray, state,
                      params: RigidBodyParams, wrench: np.ndarray) -> np.ndarray:
    """Coordinate body-wrench rates realizing the desired jerks exactly.

    This is the one jerk -> wrench-rate map of the closed loop. The
    allocation Jacobian produces plain time derivatives of the body-frame
    wrench about the body origin, so the desired world jerk and body
    angular-acceleration rate are inverted through the differentiated
    Newton-Euler equations with torques about the center of mass
    (tau_C = tau - r_com x f):

        f_dot = m R' j_des - omega x f        (gravity is world-constant)
        tau_dot = J psi_dot_des + psi x (J omega) + omega x (J psi) + r_com x f_dot

    Without the coupling terms an integrating allocation keeps the stored
    wrench body-fixed while the vehicle rotates, which loses the gravity
    compensation during large attitude maneuvers.
    """
    om = state.omega
    jj = params.inertia
    f_dot = params.mass * (state.r_wb.T @ np.asarray(j_w_des, dtype=float)) \
        - np.cross(om, wrench[:3])
    tau_dot = (jj @ np.asarray(psi_dot_des_b, dtype=float)
               + np.cross(state.psi, jj @ om)
               + np.cross(om, jj @ state.psi)
               + np.cross(params.r_com, f_dot))
    return np.concatenate([f_dot, tau_dot])


def alpha_bias(thrust_dirs: np.ndarray, magnitudes: np.ndarray,
               cfg: BiasConfig) -> np.ndarray:
    """Alternating tilt offsets for arms whose thrusts are mutually colinear.

    Arms with negligible demanded thrust count as colinear (their angle is
    free). The bias is zero when the configuration is already diverse.
    """
    n = thrust_dirs.shape[0]
    if not cfg.enabled:
        return np.zeros(n)
    scale = magnitudes.max() if magnitudes.size else 0.0
    active = magnitudes > 1e-9 * max(scale, 1e-30)
    dirs = thrust_dirs[active]
    colinear = True
    for i in range(dirs.shape[0]):
        for k in range(i + 1, dirs.shape[0]):
            cross = np.linalg.norm(np.cross(dirs[i], dirs[k]))
            if np.arcsin(np.clip(cross, 0.0, 1.0)) > cfg.colinearity_tol:
                colinear = False
                break
        if not colinear:
            break
    if not colinear:
        return np.zeros(n)
    return cfg.delta * (-1.0) ** np.arange(n)


def optimal_targets(
    m: Morphology,
    a: np.ndarray,
    alpha_c: np.ndarray,
    omega_c: np.ndarray,
    wrench: np.ndarray,
    alloc: AllocationConfig,
    bias_cfg: BiasConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unwinding targets (alpha*, omega*) and preferred rates u_tilde*.

    The wrench is re-allocated through the static pseudoinverse; per-arm
    optimal tilt angles pick the 2pi branch nearest the home winding, get
    the optional singularity bias, and the preferred differential command
    applies fixed unwinding speeds toward the targets.
    """
    alpha_star, omega_star, _ = invert_static(a, wrench, m, alpha_hold=alpha_c)
    # Nearest-to-home 2pi branch (atan2 already yields (-pi, pi]).
    alpha_star = alpha_star + 2.0 * np.pi * np.round(
        (alloc.home_alpha - alpha_star) / (2.0 * np.pi))
    if bias_cfg is not None and bias_cfg.enabled:
        dirs = (np.sin(alpha_star)[:, None] * m.lateral_dirs
                + np.cos(alpha_star)[:, None] * m.vertical_dirs)
        mags = (omega_star**2).reshape(m.n_arms, m.rotor.rotors_per_arm).sum(axis=1)
        alpha_star = alpha_star + alpha_bias(dirs, mags, bias_cfg)
    # Deadbands keep sign(0) at zero under floating-point noise, so a
    # configuration already at its targets is a fixed point.
    d_omega = omega_star - omega_c
    d_alpha = alpha_star - alpha_c
    u_star = np.concatenate([
        np.where(np.abs(d_omega) > 2.5, np.sign(d_omega), 0.0) * alloc.v_omega_dot,
        np.where(np.abs(d_alpha) > 1e-2, np.sign(d_alpha), 0.0) * alloc.v_alpha_dot,
    ])
    return alpha_star, omega_star, u_star


def solve(a_tilde: np.ndarray, w_inv_diag: np.ndarray, u_star: np.ndarray,
          w_dot_cmd: np.ndarray) -> tuple[np.ndarray, bool]:
    """Weighted minimum-deviation exact solve of A~ u = w_dot.

    Returns (u_tilde, regularized). Near rank loss of A~ W^-1 A~' the inverse
    is Tikhonov-regularized (trace-scaled) and flagged.
    """
    awt = a_tilde * w_inv_diag[None, :]
    gram = awt @ a_tilde.T
    gram = 0.5 * (gram + gram.T)
    eigvals = np.linalg.eigvalsh(gram)
    regularized = bool(eigvals[0] <= eigvals[-1] / REGULARIZATION_CONDITION)
    if regularized:
        gram = gram + 1e-9 * max(np.trace(gram), 1e-30) / gram.shape[0] * np.eye(gram.shape[0])
    resid = w_dot_cmd - a_tilde @ u_star
    lam = np.linalg.solve(gram, resid)
    return u_star + awt.T @ lam, regularized


@dataclass
class ActuatorCommand:
    alpha_ref: np.ndarray
    omega_ref: np.ndarray
    u_tilde_raw: np.ndarray
    u_tilde_sat: np.ndarray


def saturate_integrate(
    u_tilde: np.ndarray,
    m: Morphology,
    dt: float,
    alpha_prev: np.ndarray,
    omega_prev: np.ndarray,
) -> ActuatorCommand:
    """Clamp the differential commands to the rate limits and integrate.

    Rotor speed references clip to [omega_min, omega_max]; tilt references
    integrate unbounded (windup is tracked, not clamped).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n_r = m.n_rotors
    sat = u_tilde.copy()
    sat[:n_r] = np.clip(sat[:n_r], -m.tilt.omega_accel_max, m.tilt.omega_accel_max)
    sat[n_r:] = np.clip(sat[n_r:], -m.tilt.alpha_rate_max, m.tilt.alpha_rate_max)
    omega_ref = np.clip(omega_prev + dt * sat[:n_r], m.rotor.omega_min, m.rotor.omega_max)
    alpha_ref = alpha_prev + dt * sat[n_r:]
    return ActuatorCommand(alpha_ref=alpha_ref, omega_ref=omega_ref,
                           u_tilde_raw=u_tilde, u_tilde_sat=sat)


@dataclass
class DifferentialAllocator:
    """Stateful allocation pipeline holding the current actuator commands."""

    morphology: Morphology
    alloc: AllocationConfig = field(default_factory=AllocationConfig)
    bias: BiasConfig = field(default_factory=BiasConfig)
    unwind: bool = False

    def __post_init__(self):
        self.a = static_allocation(self.morphology)
        m = self.morphology
        self._w_inv = np.concatenate([
            np.ones(m.n_rotors), np.full(m.n_arms, 1.0 / self.alloc.k_alpha)
        ])
        self.alpha_cmd = np.zeros(m.n_arms)
        self.omega_cmd = np.zeros(m.n_rotors)
        self._unwind_active = np.zeros(m.n_arms, dtype=bool)

    def set_commands(self, alpha: np.ndarray, omega: np.ndarray) -> None:
        self.alpha_cmd = np.array(alpha, dtype=float)
        self.omega_cmd = np.array(omega, dtype=float)

    def current_wrench(self) -> np.ndarray:
        """Body wrench of the held commands, through the plant's map A_alpha @ W."""
        a_inst = instantaneous_allocation(self.a, self.alpha_cmd, self.morphology.arm_of_rotor)
        return a_inst @ self.omega_cmd**2

    def _schedule_unwinding(self, alpha_star: np.ndarray, u_star: np.ndarray,
                            w_dot_cmd: np.ndarray) -> np.ndarray:
        """Sequential unwinding: park waiting arms, spin active arms down.

        Near-colinear tilt configurations block a net winding change (only
        the drag terms yield z-torque), so arms unwind thrust-free a few at
        a time while the remaining arms carry the wrench. New arms engage
        only in calm moments (low commanded wrench rate), keeping the
        thrust handoffs away from aggressive maneuvering.
        """
        m = self.morphology
        n_r = m.n_rotors
        rpa = m.rotor.rotors_per_arm
        gap = np.abs(alpha_star - self.alpha_cmd)
        self._unwind_active &= gap > self.alloc.unwind_release
        need = gap > self.alloc.unwind_engage
        calm = (np.linalg.norm(w_dot_cmd[:3]) < 15.0
                and np.linalg.norm(w_dot_cmd[3:]) < 5.0)
        free = self.alloc.max_unwind_arms - int(self._unwind_active.sum())
        if free > 0 and calm:
            waiting = np.flatnonzero(need & ~self._unwind_active)
            order = waiting[np.lexsort((waiting, -np.round(gap[waiting], 6)))]
            for arm in order:
                if free <= 0:
                    break
                # Keep thrust-carrying arms spread out: never spin down two
                # adjacent arms at once (the remaining support must still
                # enclose the center of mass).
                left = (arm - 1) % m.n_arms
                right = (arm + 1) % m.n_arms
                if self._unwind_active[left] or self._unwind_active[right]:
                    continue
                self._unwind_active[arm] = True
                free -= 1
        u_star = u_star.copy()
        tilt_gate = m.rotor.omega_min + 50.0
        if self._unwind_active.any():
            # The equal-speed pull-down on carrier rotors would fight the
            # thrust redistribution, but spin-up preferences must survive: a
            # stopped rotor has no differential authority and can only be
            # restarted by its preference.
            u_star[:n_r] = np.maximum(u_star[:n_r], 0.0)
        for arm in range(m.n_arms):
            rotors = slice(arm * rpa, (arm + 1) * rpa)
            if self._unwind_active[arm]:
                spinning = self.omega_cmd[rotors] > m.rotor.omega_min + 1.0
                u_star[:n_r][rotors] = np.where(
                    spinning, -self.alloc.v_omega_dot, 0.0)
                if np.any(self.omega_cmd[rotors] > tilt_gate):
                    # Thrust-free unwinding only: wait for the ramp-down.
                    u_star[n_r + arm] = 0.0
            elif need[arm]:
                u_star[n_r + arm] = 0.0   # parked until scheduled
        return u_star

    def step(self, w_dot_cmd: np.ndarray, dt: float) -> dict:
        m = self.morphology
        a_tilde, _ = build_diff_allocation(self.a, self.omega_cmd, self.alpha_cmd,
                                           m.arm_of_rotor)
        if self.unwind or self.bias.enabled:
            alpha_star, _, u_star = optimal_targets(
                m, self.a, self.alpha_cmd, self.omega_cmd, self.current_wrench(),
                self.alloc, self.bias if self.bias.enabled else None)
            if not self.unwind:
                # Bias-only mode: keep the tilt preferences, no rotor task.
                u_star[:m.n_rotors] = 0.0
            else:
                u_star = self._schedule_unwinding(alpha_star, u_star, w_dot_cmd)
        else:
            u_star = np.zeros(m.n_rotors + m.n_arms)
        u_tilde, regularized = solve(a_tilde, self._w_inv, u_star, w_dot_cmd)
        cmd = saturate_integrate(u_tilde, m, dt, self.alpha_cmd, self.omega_cmd)
        self.alpha_cmd = cmd.alpha_ref
        self.omega_cmd = cmd.omega_ref
        residual = float(np.linalg.norm(a_tilde @ u_tilde - w_dot_cmd))
        a_inst = instantaneous_allocation(self.a, self.alpha_cmd, m.arm_of_rotor)
        return {
            "command": cmd,
            "residual": residual,
            "regularized": regularized,
            "kappa": condition_number(a_inst),
            "u_tilde": u_tilde,
        }


def condition_scan(
    m: Morphology,
    hover_dir=(0.0, 0.0, 1.0),
    extra_force_mag: float | None = None,
    bias_on: bool = False,
    n_dirs: int = 320,
    alloc: AllocationConfig | None = None,
    bias_cfg: BiasConfig | None = None,
) -> dict:
    """log condition number of A_alpha(alpha*) over an extra-force sphere.

    Per direction d the wrench hover + extra * d (zero torque) is allocated
    through the static pseudoinverse (with optional tilt bias) and the
    instantaneous allocation at the resulting tilt angles is scored.
    """
    alloc = alloc or AllocationConfig()
    bias_full = bias_cfg or BiasConfig(enabled=True)
    a = static_allocation(m)
    mg = m.body.mass * GRAVITY
    extra = mg if extra_force_mag is None else extra_force_mag
    hover = mg * np.asarray(hover_dir, dtype=float)
    dirs, _, _ = sample_directions(n_dirs)
    # Face centroids never hit the singular axes exactly; include them.
    axes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1]], dtype=float)
    hover_axis = np.asarray(hover_dir, dtype=float)[None, :]
    dirs = np.concatenate([axes, hover_axis, -hover_axis, dirs])
    log_kappa = np.empty(len(dirs))
    for i, d in enumerate(dirs):
        wrench = np.concatenate([hover + extra * d, np.zeros(3)])
        alpha_star, _, _ = optimal_targets(
            m, a, np.zeros(m.n_arms), np.zeros(m.n_rotors), wrench, alloc,
            bias_full if bias_on else None)
        a_inst = instantaneous_allocation(a, alpha_star, m.arm_of_rotor)
        log_kappa[i] = np.log(condition_number(a_inst))
    return {"directions": dirs, "log_kappa": log_kappa,
            "max_log_kappa": float(log_kappa.max()), "bias_on": bias_on}
