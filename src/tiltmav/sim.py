"""Deterministic closed-loop simulation of the tiltrotor vehicle.

The plant integrates the rigid body with classical RK4 (exponential-map
attitude update) at dt_physics while tilt angles follow their exact
first-order response and rotor speeds slew toward the references. The
actuator wrench acts about the body origin; p is the center of mass, which
sits at r_com in the body frame, and the inertia is taken about it.

The RK4 stages run on plain Python floats (``rigid_body.newton_euler`` and
the closed-form ``so3.rodrigues``): each numpy call costs microseconds of
overhead, far more than the arithmetic on one 3-vector, and the stages make
dozens of them per physics step. Numpy is left with the actuator wrench
and the end-of-step rotation product. A plant state that turns non-finite
raises FloatingPointError; ``run`` ends such a run as diverged with its
partial log, which the command line reports with exit code 3.

The controller and differential allocation run at dt_control with
zero-order hold in between. Either controller emits a world jerk and a body
angular-acceleration rate, ``exact_wrench_rate`` maps them to body wrench
rates, and the allocator integrates those into actuator commands.
Acceleration feedback defaults to ground truth; the Savitzky-Golay
estimator path is opt-in.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .allocation import instantaneous_allocation, invert_static, static_allocation
from .diff_allocation import (AllocationConfig, BiasConfig, DifferentialAllocator,
                              exact_wrench_rate)
from .lqri import LqriController, LqriGains
from .pid import PidController, PidGains
from .rigid_body import BodyConstants, RigidBodyState, com_torque, newton_euler, tilt_step
from .sgfilter import SavitzkyGolay
from .simlog import SimLog
from .so3 import project_to_so3, rodrigues
from .trajectory import Trajectory
from .vehicle import Morphology


@dataclass(frozen=True)
class SimConfig:
    dt_physics: float = 1e-3
    dt_control: float = 1e-2
    controller: str = "pid"
    seed: int = 0
    sigma_a: float = 0.0
    sigma_omega: float = 0.0
    use_estimator: bool = False
    sg_window: int = 21
    sg_order: int = 1
    rotor_slew: float = 1e4
    divergence_limit: float = 10.0

    def __post_init__(self):
        for name in ("dt_physics", "dt_control"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("sigma_a", "sigma_omega"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be non-negative and finite, got {value!r}")
        if not (np.isfinite(self.rotor_slew) and self.rotor_slew > 0.0):
            raise ValueError(f"rotor_slew must be positive and finite, got {self.rotor_slew!r}")
        if not isinstance(self.use_estimator, bool):
            raise ValueError(f"use_estimator must be true or false, got {self.use_estimator!r}")
        for name, least in (("seed", 0), ("sg_window", 3), ("sg_order", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.sg_window % 2 == 0:
            raise ValueError(f"sg_window must be odd, got {self.sg_window}")
        if self.sg_order >= self.sg_window:
            raise ValueError(f"sg_order must be below sg_window, got {self.sg_order}")
        if self.controller not in ("pid", "lqri"):
            raise ValueError(f"controller must be pid or lqri, got {self.controller!r}")
        if not self.divergence_limit > 0.0:
            raise ValueError(f"divergence_limit must be positive, got {self.divergence_limit!r}")
        if self.dt_physics > self.dt_control:
            raise ValueError("dt_physics must not exceed dt_control")
        ratio = self.dt_control / self.dt_physics
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("dt_control must be an integer multiple of dt_physics")


@dataclass
class Plant:
    """Physical vehicle: rigid body plus actuator states."""

    morphology: Morphology
    state: RigidBodyState = field(default_factory=RigidBodyState)
    alpha: np.ndarray = None
    omega: np.ndarray = None
    rotor_slew: float = 1e4

    def __post_init__(self):
        m = self.morphology
        if self.alpha is None:
            self.alpha = np.zeros(m.n_arms)
        if self.omega is None:
            self.omega = np.zeros(m.n_rotors)
        self._a = static_allocation(m)
        self._arm_of_rotor = m.arm_of_rotor
        self._body = BodyConstants.of(m.body)
        self._renorm_counter = 0

    def _wrench_at(self, alpha: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """[f; tau] about the body origin at tilt angles alpha, rotor speeds omega."""
        return instantaneous_allocation(self._a, alpha, self._arm_of_rotor) @ omega**2

    def wrench(self) -> np.ndarray:
        """Actuator wrench [f; tau] about the body origin."""
        return self._wrench_at(self.alpha, self.omega)

    def _force_and_com_torque(self, alpha, omega) -> tuple[list, list]:
        w = self._wrench_at(alpha, omega)
        return w[:3].tolist(), com_torque(w[:3], w[3:], self.morphology.body).tolist()

    def refresh_accelerations(self) -> None:
        force_b, torque_c = self._force_and_com_torque(self.alpha, self.omega)
        a_w, psi = newton_euler(self.state.r_wb.ravel().tolist(), self.state.omega.tolist(),
                                force_b, torque_c, self._body)
        self.state.a = np.array(a_w)
        self.state.psi = np.array(psi)

    def step(self, alpha_ref: np.ndarray, omega_ref: np.ndarray, dt: float) -> None:
        """Advance actuators and rigid body by dt (RK4, exp-map attitude).

        Raises FloatingPointError, leaving the state as it was, when the
        step would make it non-finite.
        """
        m = self.morphology
        # Actuators move first; the step uses their midpoint wrench.
        alpha_mid = tilt_step(self.alpha, alpha_ref, m.tilt.tau, 0.5 * dt)
        alpha_end = tilt_step(self.alpha, alpha_ref, m.tilt.tau, dt)
        d_omega = np.clip(omega_ref - self.omega, -self.rotor_slew * dt, self.rotor_slew * dt)
        omega_mid = self.omega + 0.5 * d_omega
        omega_end = self.omega + d_omega
        force_b, torque_c = self._force_and_com_torque(alpha_mid, omega_mid)
        body = self._body
        r0 = self.state.r_wb.ravel().tolist()
        fx, fy, fz = force_b

        def deriv(y):
            # y = [p, v, rotation increment phi, omega]; R = r0 exp(phi), and
            # R f = r0 (exp(phi) f) saves the matrix product.
            e00, e01, e02, e10, e11, e12, e20, e21, e22 = rodrigues(y[6], y[7], y[8])
            f_inc = (e00 * fx + e01 * fy + e02 * fz,
                     e10 * fx + e11 * fy + e12 * fz,
                     e20 * fx + e21 * fy + e22 * fz)
            acc, omega_dot = newton_euler(r0, y[9:12], f_inc, torque_c, body)
            return (*y[3:6], *acc, *y[9:12], *omega_dot)

        y0 = (*self.state.p.tolist(), *self.state.v.tolist(), 0.0, 0.0, 0.0,
              *self.state.omega.tolist())
        half = 0.5 * dt
        k1 = deriv(y0)
        k2 = deriv([a + half * b for a, b in zip(y0, k1)])
        k3 = deriv([a + half * b for a, b in zip(y0, k2)])
        k4 = deriv([a + dt * b for a, b in zip(y0, k3)])
        sixth = dt / 6.0
        y1 = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
              for a, b1, b2, b3, b4 in zip(y0, k1, k2, k3, k4)]
        if not math.isfinite(sum(y1)):
            raise FloatingPointError(f"non-finite plant state: {y1}")

        r1 = self.state.r_wb @ np.array(rodrigues(*y1[6:9])).reshape(3, 3)
        self.state.p = np.array(y1[0:3])
        self.state.v = np.array(y1[3:6])
        self.state.omega = np.array(y1[9:12])
        self.alpha = alpha_end
        self.omega = omega_end
        self._renorm_counter += 1
        if self._renorm_counter % 256 == 0:
            r1 = project_to_so3(r1)
        self.state.r_wb = r1
        self.refresh_accelerations()


def hover_trim(m: Morphology, r_wb=None) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, omega) holding the vehicle static at attitude r_wb.

    The thrust cancels gravity and its torque about the body origin is
    r_com x f, so no torque acts about the center of mass.
    """
    r = np.eye(3) if r_wb is None else np.asarray(r_wb, dtype=float)
    f_b = -m.body.mass * (r.T @ m.body.gravity_w)
    wrench = np.concatenate([f_b, np.cross(m.body.r_com, f_b)])
    alpha, omega, _ = invert_static(static_allocation(m), wrench, m)
    return alpha, omega


def _make_controller(config: SimConfig, gains: dict | None):
    gains = gains or {}
    if config.controller == "lqri":
        return LqriController(gains.get("lqri", LqriGains()))
    return PidController(gains.get("pid", PidGains()))


def run(
    config: SimConfig,
    morphology: Morphology,
    trajectory: Trajectory,
    gains: dict | None = None,
    alloc: AllocationConfig | None = None,
    bias: BiasConfig | None = None,
    unwind: bool = False,
    alpha0: np.ndarray | None = None,
    p_offset=None,
) -> SimLog:
    """Closed-loop simulation of a trajectory; returns the control-rate log.

    ``gains`` maps "pid" and "lqri" to that controller's ``PidGains`` or
    ``LqriGains`` (the defaults where absent). ``alpha0`` overrides the trim
    tilt-angle commands (e.g. wound-up arms at 2 pi); ``p_offset`` displaces
    the initial position for step-recovery studies. Divergence (position
    error beyond the configured limit or not finite, or a plant state that
    turned non-finite) stops the run and returns the partial log with the
    divergence time and cause in ``log.divergence``.
    """
    for name, value in (("alpha0", alpha0), ("p_offset", p_offset)):
        if value is not None and not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite, got {value!r}")
    rng = np.random.default_rng(config.seed)
    ref0 = trajectory.sample(trajectory.t0)
    alpha_trim, omega_trim = hover_trim(morphology, ref0.r_wb)
    if alpha0 is not None:
        alpha_trim = np.asarray(alpha0, dtype=float)

    plant = Plant(morphology, rotor_slew=config.rotor_slew)
    plant.state.p = ref0.p + (0.0 if p_offset is None else np.asarray(p_offset, dtype=float))
    plant.state.r_wb = ref0.r_wb.copy()
    plant.alpha = alpha_trim.copy()
    plant.omega = omega_trim.copy()
    plant.refresh_accelerations()

    controller = _make_controller(config, gains)
    allocator = DifferentialAllocator(
        morphology, alloc or AllocationConfig(), bias or BiasConfig(), unwind=unwind)
    allocator.set_commands(alpha_trim, omega_trim)

    estimator_a = SavitzkyGolay(config.sg_window, config.sg_order)
    estimator_w = SavitzkyGolay(config.sg_window, config.sg_order)

    log = SimLog(morphology.n_arms, morphology.n_rotors)
    steps_per_tick = int(round(config.dt_control / config.dt_physics))
    n_ticks = max(int(round(trajectory.duration / config.dt_control)), 0) + 1
    c_f = morphology.rotor.c_f

    alpha_ref, omega_ref = alpha_trim.copy(), omega_trim.copy()
    divergence = None   # (time, cause) once the run diverges
    for tick in range(n_ticks):
        t = trajectory.t0 + tick * config.dt_control
        ref = trajectory.sample(t)

        est_state = plant.state.copy()
        if config.use_estimator:
            a_meas = plant.state.a + rng.normal(0.0, config.sigma_a, 3)
            w_meas = plant.state.omega + rng.normal(0.0, config.sigma_omega, 3)
            estimator_a.push(a_meas)
            estimator_w.push(w_meas)
            est_state.a = estimator_a.value()
            est_state.omega = estimator_w.value()
            est_state.psi = estimator_w.derivative(config.dt_control)

        out = controller.step(est_state, ref, config.dt_control)
        w_dot = exact_wrench_rate(out["j_w"], out["psi_dot"], est_state,
                                  morphology.body, allocator.current_wrench())
        alloc_out = allocator.step(w_dot, config.dt_control)
        alpha_ref = alloc_out["command"].alpha_ref
        omega_ref = alloc_out["command"].omega_ref

        thrusts = c_f * plant.omega**2
        force_net = plant.wrench()[:3]
        eta = float(np.linalg.norm(force_net) / max(thrusts.sum(), 1e-30))
        stab_lhs, stab_rhs, stab_ok = out["stab"]
        log.append(
            t=t, state=plant.state, ref=ref, e_p=out["e_p"], e_r=out["e_r"],
            alpha_cmd=alpha_ref, omega_cmd=omega_ref,
            alpha_act=plant.alpha, omega_act=plant.omega,
            u=out["u"], eta_f=min(eta, 1.0), kappa=alloc_out["kappa"],
            residual=alloc_out["residual"], regularized=alloc_out["regularized"],
            stab_lhs=stab_lhs, stab_rhs=stab_rhs, stab_ok=stab_ok,
        )
        if not np.linalg.norm(out["e_p"]) <= config.divergence_limit:
            divergence = (t, "position error exceeded the divergence limit")
            break
        if tick == n_ticks - 1:
            break
        try:
            for k in range(steps_per_tick):
                plant.step(alpha_ref, omega_ref, config.dt_physics)
        except FloatingPointError:
            divergence = (t + (k + 1) * config.dt_physics, "plant state turned non-finite")
            break

    log.divergence = divergence
    return log
