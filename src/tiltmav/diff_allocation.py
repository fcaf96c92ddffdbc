"""Differential actuator allocation with null-space task prioritization.

Wrench-rate commands map to the 18 differential actuator commands
u_tilde = [omega_dot; alpha_dot] through A_tilde = d(A_alpha omega^2)/d[omega;
alpha], read off the columns of A_alpha and dA_alpha/dalpha. The solve
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

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .allocation import (condition_number, instantaneous_allocation, invert_static,
                         static_allocation)
from .envelope import sample_directions
from .so3 import cross3
from .vehicle import (GRAVITY, Morphology, RigidBodyParams, check_bool, check_int,
                      check_real, check_vector)

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

    def __post_init__(self):
        check_real("k_alpha", self.k_alpha, 0.0, strict=True)
        for name in ("v_alpha_dot", "v_omega_dot", "unwind_engage", "unwind_release"):
            check_real(name, getattr(self, name), 0.0)
        check_real("home_alpha", self.home_alpha)
        check_int("max_unwind_arms", self.max_unwind_arms, 1)
        if not self.unwind_release < self.unwind_engage:
            raise ValueError(f"unwind_release must be below unwind_engage "
                             f"({self.unwind_engage!r}), got {self.unwind_release!r}")


@dataclass(frozen=True)
class BiasConfig:
    enabled: bool = False
    delta: float = 0.15
    colinearity_tol: float = 0.1

    def __post_init__(self):
        check_bool("enabled", self.enabled)
        check_real("delta", self.delta)
        check_real("colinearity_tol", self.colinearity_tol, 0.0, strict=True)
        if self.colinearity_tol > 0.5 * math.pi:
            raise ValueError(f"colinearity_tol must be in (0, pi/2], got {self.colinearity_tol!r}")


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
    om = state.omega.tolist()
    jj = params.inertia
    f_dot = params.mass * (state.r_wb.T @ np.asarray(j_w_des, dtype=float)) \
        - cross3(om, wrench[:3].tolist())
    tau_dot = (jj @ np.asarray(psi_dot_des_b, dtype=float)
               + cross3(state.psi.tolist(), (jj @ state.omega).tolist())
               + cross3(om, (jj @ state.psi).tolist())
               + cross3(params.r_com.tolist(), f_dot.tolist()))
    return np.concatenate([f_dot, tau_dot])


def alpha_bias(thrust_dirs: np.ndarray, magnitudes: np.ndarray,
               cfg: BiasConfig) -> np.ndarray:
    """Alternating tilt offsets for arms whose thrusts are mutually colinear.

    Each row of ``thrust_dirs`` (..., n_arms, 3) and ``magnitudes`` (..., n_arms)
    is one arm set, and the offsets have shape (..., n_arms). Arms with negligible
    demanded thrust count as colinear (their angle is free). The bias is zero when
    two thrusting arms are diverse: for unit directions, |d_i x d_k|^2 =
    |d_i|^2 |d_k|^2 - (d_i . d_k)^2 exceeds sin^2(colinearity_tol).
    """
    if not cfg.enabled:
        return np.zeros(thrust_dirs.shape[:-1])
    active = magnitudes > 1e-9 * magnitudes.max(axis=-1, keepdims=True, initial=1e-30)
    dirs = np.where(active[..., None], thrust_dirs, 0.0)   # a zero row is colinear with all
    gram = dirs @ np.swapaxes(dirs, -1, -2)
    sq = np.diagonal(gram, axis1=-2, axis2=-1)
    sin_sq = np.minimum(sq[..., :, None] * sq[..., None, :] - gram * gram, 1.0)
    diverse = (sin_sq > math.sin(cfg.colinearity_tol) ** 2).any(axis=(-2, -1))
    return np.where(diverse[..., None], 0.0, cfg.delta * (-1.0) ** np.arange(dirs.shape[-2]))


def optimal_targets(
    m: Morphology,
    a: np.ndarray,
    alpha_c: np.ndarray,
    omega_c: np.ndarray,
    wrench: np.ndarray,
    alloc: AllocationConfig,
    bias_cfg: BiasConfig = BiasConfig(),
    a_pinv: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unwinding targets (alpha*, omega*) and preferred rates u_tilde*.

    The wrench is re-allocated through the static pseudoinverse; per-arm
    optimal tilt angles pick the 2pi branch nearest the home winding, get
    the singularity bias where ``bias_cfg`` enables it, and the preferred
    differential command applies fixed unwinding speeds toward the targets.
    ``a_pinv`` is passed on to ``invert_static``. A stack of wrenches (..., 6)
    gives stacked targets (..., n_arms), (..., n_rotors) and u_tilde*
    (..., n_rotors + n_arms); the commands broadcast against them.
    """
    alpha_star, omega_star, _ = invert_static(a, wrench, m, alpha_hold=alpha_c, a_pinv=a_pinv)
    # Nearest-to-home 2pi branch (atan2 already yields (-pi, pi]).
    alpha_star = alpha_star + 2.0 * np.pi * np.round(
        (alloc.home_alpha - alpha_star) / (2.0 * np.pi))
    if bias_cfg.enabled:
        dirs = (np.sin(alpha_star)[..., None] * m.lateral_dirs
                + np.cos(alpha_star)[..., None] * m.vertical_dirs)
        mags = (omega_star**2).reshape(alpha_star.shape + (m.rotor.rotors_per_arm,)).sum(axis=-1)
        alpha_star = alpha_star + alpha_bias(dirs, mags, bias_cfg)
    # Deadbands keep sign(0) at zero under floating-point noise, so a
    # configuration already at its targets is a fixed point.
    d_omega = omega_star - omega_c
    d_alpha = alpha_star - alpha_c
    u_star = np.concatenate([
        np.where(np.abs(d_omega) > 2.5, np.sign(d_omega), 0.0) * alloc.v_omega_dot,
        np.where(np.abs(d_alpha) > 1e-2, np.sign(d_alpha), 0.0) * alloc.v_alpha_dot,
    ], axis=-1)
    return alpha_star, omega_star, u_star


def solve(a_tilde: np.ndarray, w_inv_diag: np.ndarray, u_star: np.ndarray,
          w_dot_cmd: np.ndarray) -> tuple[np.ndarray, bool]:
    """Weighted minimum-deviation exact solve of A~ u = w_dot.

    Returns (u_tilde, regularized). The rank test and lambda = V L^-1 V' (w_dot - A~ u*)
    read one eigendecomposition V L V' of G = A~ W^-1 A~'; near rank loss of G the
    inverse is Tikhonov-regularized (a trace-scaled shift of L) and flagged.
    """
    awt = a_tilde * w_inv_diag
    gram = awt @ a_tilde.T
    lam, v = np.linalg.eigh(gram)
    regularized = bool(lam[0] <= lam[-1] / REGULARIZATION_CONDITION)
    if regularized:
        lam = lam + 1e-9 * max(np.trace(gram), 1e-30) / lam.size
    resid = w_dot_cmd - a_tilde @ u_star
    return u_star + (v @ ((resid @ v) / lam)) @ awt, regularized


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
    bound = np.full(u_tilde.shape, m.tilt.alpha_rate_max)
    bound[:n_r] = m.tilt.omega_accel_max
    sat = np.minimum(np.maximum(u_tilde, -bound), bound)
    omega_ref = np.minimum(np.maximum(omega_prev + dt * sat[:n_r], m.rotor.omega_min),
                           m.rotor.omega_max)
    alpha_ref = alpha_prev + dt * sat[n_r:]
    return ActuatorCommand(alpha_ref=alpha_ref, omega_ref=omega_ref,
                           u_tilde_raw=u_tilde, u_tilde_sat=sat)


@dataclass
class DifferentialAllocator:
    """Allocation pipeline; ``set_commands`` holds the commands, A_alpha, dA_alpha/da, wrench."""

    morphology: Morphology
    alloc: AllocationConfig = field(default_factory=AllocationConfig)
    bias: BiasConfig = field(default_factory=BiasConfig)
    unwind: bool = False

    def __post_init__(self):
        self.a = static_allocation(self.morphology)
        self._a_pinv = np.linalg.pinv(self.a)
        m = self.morphology
        # [A; A'], A' = (-A_vert, A_lat): its instantaneous allocation is [A_alpha; dA_alpha/da].
        self._a_pair = np.concatenate([self.a, np.stack([-self.a[:, 1::2], self.a[:, 0::2]],
                                                        axis=-1).reshape(self.a.shape)])
        self._arm_sum = (m.arm_of_rotor[:, None] == np.arange(m.n_arms)).astype(float)
        self._w_inv = np.concatenate([
            np.ones(m.n_rotors), np.full(m.n_arms, 1.0 / self.alloc.k_alpha)
        ])
        self._unwind_active = np.zeros(m.n_arms, dtype=bool)
        self.set_commands(np.zeros(m.n_arms), np.zeros(m.n_rotors))

    def set_commands(self, alpha: np.ndarray, omega: np.ndarray) -> None:
        omega = np.array(omega, dtype=float)
        if np.any(omega < 0.0):
            raise ValueError("rotor speed commands must be non-negative")
        self.alpha_cmd = np.array(alpha, dtype=float)
        self.omega_cmd = omega
        pair = instantaneous_allocation(self._a_pair, self.alpha_cmd, self.morphology.arm_of_rotor)
        self.a_alpha, self._da_alpha = pair[:6], pair[6:]
        self.wrench = self.a_alpha @ self.omega_cmd**2

    @property
    def a_tilde(self) -> np.ndarray:
        """A_tilde, the chain-rule Jacobian of A @ omega_tilde at the held commands.

        With A_alpha = A_lat sin(a) + A_vert cos(a) from A's rotor column pairs, rotor r's
        column is 2 w_r A_alpha[:, r] and arm k's column sums w_r^2 dA_alpha[:, r]/da_k =
        w_r^2 (A_lat cos(a_k) - A_vert sin(a_k)) over its rotors.
        """
        return np.concatenate([self.a_alpha * (2.0 * self.omega_cmd),
                               (self._da_alpha * self.omega_cmd**2) @ self._arm_sum], axis=1)

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
        gap = np.abs(alpha_star - self.alpha_cmd)
        active = self._unwind_active
        active &= gap > self.alloc.unwind_release
        need = gap > self.alloc.unwind_engage
        calm = math.hypot(*w_dot_cmd[:3]) < 15.0 and math.hypot(*w_dot_cmd[3:]) < 5.0
        free = self.alloc.max_unwind_arms - np.count_nonzero(active)
        waiting = np.flatnonzero(need & ~active) if free > 0 and calm else ()
        if len(waiting):
            order = waiting[np.lexsort((waiting, -np.round(gap[waiting], 6)))]
            for arm in order:
                if free <= 0:
                    break
                # Keep thrust-carrying arms spread out: never spin down two
                # adjacent arms at once (the remaining support must still
                # enclose the center of mass).
                if active[(arm - 1) % m.n_arms] or active[(arm + 1) % m.n_arms]:
                    continue
                active[arm] = True
                free -= 1
        omega_pref, alpha_pref = u_star[:n_r], u_star[n_r:]
        if not active.any():
            # Waiting arms park until scheduled.
            return np.concatenate([omega_pref, np.where(need, 0.0, alpha_pref)])
        # The equal-speed pull-down on carrier rotors would fight the thrust
        # redistribution, but spin-up preferences must survive: a stopped rotor
        # has no differential authority and can only be restarted by its
        # preference. Active arms spin their rotors down and unwind thrust-free
        # only, so their tilt waits for the ramp-down.
        spin_down = np.where(self.omega_cmd > m.rotor.omega_min + 1.0, -self.alloc.v_omega_dot, 0.0)
        omega_pref = np.where(active[m.arm_of_rotor], spin_down, np.maximum(omega_pref, 0.0))
        hot = (self.omega_cmd > m.rotor.omega_min + 50.0).reshape(m.n_arms, -1).any(axis=1)
        return np.concatenate([omega_pref, np.where(np.where(active, hot, need), 0.0, alpha_pref)])

    def step(self, w_dot_cmd: np.ndarray, dt: float) -> dict:
        m = self.morphology
        a_tilde = self.a_tilde
        if self.unwind or self.bias.enabled:
            alpha_star, _, u_star = optimal_targets(
                m, self.a, self.alpha_cmd, self.omega_cmd, self.wrench,
                self.alloc, self.bias, a_pinv=self._a_pinv)
            if not self.unwind:
                # Bias-only mode: keep the tilt preferences, no rotor task.
                u_star[:m.n_rotors] = 0.0
            else:
                u_star = self._schedule_unwinding(alpha_star, u_star, w_dot_cmd)
        else:
            u_star = np.zeros(m.n_rotors + m.n_arms)
        u_tilde, regularized = solve(a_tilde, self._w_inv, u_star, w_dot_cmd)
        cmd = saturate_integrate(u_tilde, m, dt, self.alpha_cmd, self.omega_cmd)
        self.set_commands(cmd.alpha_ref, cmd.omega_ref)
        return {
            "command": cmd,
            "residual": math.sqrt((r := a_tilde @ u_tilde - w_dot_cmd) @ r),
            "regularized": regularized,
            "kappa": condition_number(self.a_alpha),
        }


def condition_scan(
    m: Morphology,
    hover_dir=(0.0, 0.0, 1.0),
    extra_force_mag: float | None = None,
    bias_on: bool = False,
    n_dirs: int = 320,
    bias_cfg: BiasConfig | None = None,
) -> dict:
    """log condition number of A_alpha(alpha*) over an extra-force sphere.

    Per direction d the wrench hover + extra * d (zero torque) is allocated
    through the static pseudoinverse (with the tilt bias if ``bias_on``;
    ``bias_cfg`` sets its delta and tolerance) and the instantaneous
    allocation at the resulting tilt angles is scored.
    """
    check_bool("bias_on", bias_on)
    hover_dir = check_vector("hover_dir", hover_dir, (3,))
    if extra_force_mag is not None:
        check_real("extra_force_mag", extra_force_mag, 0.0)
    bias_cfg = replace(bias_cfg or BiasConfig(), enabled=bias_on)
    a = static_allocation(m)
    mg = m.body.mass * GRAVITY
    extra = mg if extra_force_mag is None else extra_force_mag
    hover = mg * hover_dir
    dirs, _, _ = sample_directions(n_dirs)
    # Face centroids never hit the singular axes exactly; include them.
    axes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1]], dtype=float)
    dirs = np.concatenate([axes, hover_dir[None, :], -hover_dir[None, :], dirs])
    wrenches = np.concatenate([hover + extra * dirs, np.zeros((len(dirs), 3))], axis=1)
    alpha_star, _, _ = optimal_targets(m, a, np.zeros(m.n_arms), np.zeros(m.n_rotors),
                                       wrenches, AllocationConfig(), bias_cfg)
    log_kappa = np.log(condition_number(instantaneous_allocation(a, alpha_star, m.arm_of_rotor)))
    return {"directions": dirs, "log_kappa": log_kappa,
            "max_log_kappa": float(log_kappa.max()), "bias_on": bias_on}
