"""Deterministic closed-loop simulation of the tiltrotor vehicle.

The controller and differential allocation run at dt_control. The plant
advances each control period at once under the held commands: tilt angles
follow their exact first-order response and rotor speeds slew toward the
references, both in closed form from decay factors and slew reaches formed
once per (dt, n, tau, rotor_slew), one batched product gives the actuator
wrench at every physics step's midpoint, and the rigid body takes classical
RK4 steps of dt_physics (exponential-map attitude) on named float locals,
building no list or slice per stage: numpy's per-call overhead, and Python's
list traffic, would dwarf the arithmetic on one 3-vector. Accelerations
are formed once per period, at its end, where the controller reads them. The
wrench acts about the body origin; p is the center of mass, which sits at
r_com in the body frame, and the inertia is taken about it. A step that
would make the state non-finite raises NonFiniteState; ``run`` ends such a
run as diverged with its partial log (exit code 3 on the CLI).

Either controller emits a world jerk and a body angular-acceleration rate,
``exact_wrench_rate`` maps them to body wrench rates, and the allocator
integrates those into actuator commands, factoring the static
pseudoinverse once. Acceleration feedback defaults to ground truth; the
Savitzky-Golay estimator path is opt-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .allocation import instantaneous_allocation, invert_static, static_allocation
from .diff_allocation import (AllocationConfig, BiasConfig, DifferentialAllocator,
                              exact_wrench_rate)
from .lqri import LqriController, LqriGains
from .pid import PidController, PidGains
from .rigid_body import BodyConstants, RigidBodyState, com_torque, newton_euler
from .sgfilter import SavitzkyGolay
from .simlog import SimLog
from .so3 import matmul3, rodrigues
from .trajectory import Trajectory
from .vehicle import Morphology, check_bool, check_int, check_real, check_vector


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
        for name in ("dt_physics", "rotor_slew", "divergence_limit"):
            check_real(name, getattr(self, name), 0.0, strict=True)
        check_real("dt_control", self.dt_control, self.dt_physics)
        for name in ("sigma_a", "sigma_omega"):
            check_real(name, getattr(self, name), 0.0)
        check_bool("use_estimator", self.use_estimator)
        for name, least in (("seed", 0), ("sg_window", 3), ("sg_order", 0)):
            check_int(name, getattr(self, name), least)
        if self.sg_window % 2 == 0:
            raise ValueError(f"sg_window must be odd, got {self.sg_window}")
        if self.sg_order >= self.sg_window:
            raise ValueError(f"sg_order must be below sg_window, got {self.sg_order}")
        if self.controller not in ("pid", "lqri"):
            raise ValueError(f"controller must be pid or lqri, got {self.controller!r}")
        ratio = self.dt_control / self.dt_physics
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("dt_control must be an integer multiple of dt_physics")


class NonFiniteState(FloatingPointError):
    """A plant call's physics step ``step`` (counted from 1) would make the state non-finite."""

    def __init__(self, step: int):
        super().__init__(f"non-finite plant state in physics step {step}")
        self.step = step


@dataclass
class Plant:
    """Physical vehicle: rigid body plus actuator states."""

    morphology: Morphology
    state: RigidBodyState = field(default_factory=RigidBodyState)
    alpha: np.ndarray = None
    omega: np.ndarray = None
    rotor_slew: float = 1e4
    #: Actuator wrench [f; tau] about the body origin that the last
    #: ``refresh_accelerations`` formed (None before the first).
    wrench: np.ndarray = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = self.morphology
        check_real("rotor_slew", self.rotor_slew, 0.0, strict=True)
        self.alpha = (np.zeros(m.n_arms) if self.alpha is None
                      else check_vector("alpha", self.alpha, (m.n_arms,)))
        self.omega = (np.zeros(m.n_rotors) if self.omega is None
                      else check_vector("omega", self.omega, (m.n_rotors,)))
        if (self.omega < 0.0).any():
            raise ValueError(f"omega must have entries >= 0 (rotor speeds), got {self.omega!r}")
        self._a = static_allocation(m)
        self._body = BodyConstants.of(m.body)
        self._tick_key = self._tick = None   # the last tick constants and their key (step)

    def _wrench_at(self, alpha: np.ndarray, omega: np.ndarray) -> np.ndarray:
        """[f; tau] about the body origin at tilt angles alpha, rotor speeds omega (or rows)."""
        a_alpha = instantaneous_allocation(self._a, alpha, self.morphology.arm_of_rotor)
        return (a_alpha @ (omega**2)[..., None])[..., 0]

    def _force_and_com_torque(self, w: np.ndarray) -> tuple[list, list]:
        f, tau = w[..., :3], w[..., 3:]
        return f.tolist(), com_torque(f, tau, self.morphology.body).tolist()

    def refresh_accelerations(self) -> None:
        """Accelerations of the current state, and the ``wrench`` they follow."""
        self.wrench = self._wrench_at(self.alpha, self.omega)
        a_w, psi = newton_euler(self.state.r_wb.ravel().tolist(), self.state.omega.tolist(),
                                *self._force_and_com_torque(self.wrench), self._body)
        self.state.a, self.state.psi = np.array(a_w), np.array(psi)

    def step(self, alpha_ref: np.ndarray, omega_ref: np.ndarray, dt: float, n: int = 1) -> None:
        """Advance actuators and rigid body by n steps of dt under held references.

        Each RK4 step (exp-map attitude) holds its midpoint actuator wrench.
        Its four stages run on named float locals, 3 each of velocity,
        rotation increment phi and body rate (position enters no derivative),
        through ``rodrigues`` and ``newton_euler``, with the arithmetic of
        the list form in the same order, so every bit matches it. The tilt
        decay factors, slew reach and step fractions are formed, and dt and
        ``rotor_slew`` checked, once per (dt, n, tau, rotor_slew).
        Accelerations are formed once, at the end. Raises ValueError for a
        reference of the wrong shape, not finite or < 0, and NonFiniteState when a
        step would make the state non-finite, both leaving the state as it was.
        """
        check_int("n", n, 1)
        alpha_ref, omega_ref = np.asarray(alpha_ref, float), np.asarray(omega_ref, float)
        for name, ref, held in (("alpha_ref", alpha_ref, self.alpha),
                                ("omega_ref", omega_ref, self.omega)):
            if ref.shape != held.shape or not np.isfinite(ref).all():
                raise ValueError(f"{name} must be finite with shape {held.shape}, got {ref!r}")
        if omega_ref.min() < 0.0:
            raise ValueError(f"omega_ref must have entries >= 0 (rotor speeds), got {omega_ref!r}")
        key = (dt, n, self.morphology.tilt.tau, self.rotor_slew)
        if key != self._tick_key:
            self._tick_key, self._tick = key, _tick_constants(*key)
        decay, reach, neg_reach, half, sixth = self._tick
        # Tilt angles at every half step and rotor speeds at every step end
        # in closed form; a step's midpoint speeds are the mean of its ends.
        alpha = alpha_ref + (self.alpha - alpha_ref) * decay
        ends = self.omega + np.minimum(np.maximum(omega_ref - self.omega, neg_reach), reach)
        forces, torques = self._force_and_com_torque(
            self._wrench_at(alpha[0::2], 0.5 * (ends[:-1] + ends[1:])))
        body = self._body
        r = self.state.r_wb.ravel().tolist()
        px, py, pz = self.state.p.tolist()
        vx, vy, vz = self.state.v.tolist()
        wx, wy, wz = self.state.omega.tolist()

        def deriv(e, ox, oy, oz):
            # (a_W, psi) at rotation r e, e = exp(phi), and body rate (ox, oy, oz);
            # R f = r (e f) skips a 3x3 product.
            e00, e01, e02, e10, e11, e12, e20, e21, e22 = e
            return newton_euler(r, (ox, oy, oz), (e00 * fx + e01 * fy + e02 * fz,
                                                  e10 * fx + e11 * fy + e12 * fz,
                                                  e20 * fx + e21 * fy + e22 * fz), torque, body)

        unit = rodrigues(0.0, 0.0, 0.0)   # exp(phi) of every step's first stage
        try:
            for k in range(n):
                (fx, fy, fz), torque = forces[k], torques[k]
                # Stage i holds v_i, phi_i and w_i; its derivative is (v_i, a_i, w_i, d_i).
                (a1x, a1y, a1z), (d1x, d1y, d1z) = deriv(unit, wx, wy, wz)
                v2x, v2y, v2z = vx + half * a1x, vy + half * a1y, vz + half * a1z
                w2x, w2y, w2z = wx + half * d1x, wy + half * d1y, wz + half * d1z
                (a2x, a2y, a2z), (d2x, d2y, d2z) = deriv(
                    rodrigues(0.0 + half * wx, 0.0 + half * wy, 0.0 + half * wz), w2x, w2y, w2z)
                v3x, v3y, v3z = vx + half * a2x, vy + half * a2y, vz + half * a2z
                w3x, w3y, w3z = wx + half * d2x, wy + half * d2y, wz + half * d2z
                (a3x, a3y, a3z), (d3x, d3y, d3z) = deriv(
                    rodrigues(0.0 + half * w2x, 0.0 + half * w2y, 0.0 + half * w2z), w3x, w3y, w3z)
                v4x, v4y, v4z = vx + dt * a3x, vy + dt * a3y, vz + dt * a3z
                w4x, w4y, w4z = wx + dt * d3x, wy + dt * d3y, wz + dt * d3z
                (a4x, a4y, a4z), (d4x, d4y, d4z) = deriv(
                    rodrigues(0.0 + dt * w3x, 0.0 + dt * w3y, 0.0 + dt * w3z), w4x, w4y, w4z)
                px += sixth * (vx + 2.0 * v2x + 2.0 * v3x + v4x)
                py += sixth * (vy + 2.0 * v2y + 2.0 * v3y + v4y)
                pz += sixth * (vz + 2.0 * v2z + 2.0 * v3z + v4z)
                vx += sixth * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
                vy += sixth * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
                vz += sixth * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)
                qx = 0.0 + sixth * (wx + 2.0 * w2x + 2.0 * w3x + w4x)
                qy = 0.0 + sixth * (wy + 2.0 * w2y + 2.0 * w3y + w4y)
                qz = 0.0 + sixth * (wz + 2.0 * w2z + 2.0 * w3z + w4z)
                wx += sixth * (d1x + 2.0 * d2x + 2.0 * d3x + d4x)
                wy += sixth * (d1y + 2.0 * d2y + 2.0 * d3y + d4y)
                wz += sixth * (d1z + 2.0 * d2z + 2.0 * d3z + d4z)
                if not math.isfinite(px + py + pz + vx + vy + vz + qx + qy + qz + wx + wy + wz):
                    raise FloatingPointError("non-finite plant state")
                # The exp-map update keeps R orthonormal (drift < 1e-13 in 100k steps).
                r = matmul3(r, rodrigues(qx, qy, qz))
        except FloatingPointError as err:
            raise NonFiniteState(k + 1) from err

        self.state.r_wb = np.array(r).reshape(3, 3)
        self.state.p, self.state.v = np.array([px, py, pz]), np.array([vx, vy, vz])
        self.state.omega = np.array([wx, wy, wz])
        self.alpha, self.omega = alpha[-1], ends[-1]
        self.refresh_accelerations()


def _tick_constants(dt: float, n: int, tau: float, rotor_slew: float) -> tuple:
    """What a tick of n steps of dt reads besides its state: the tilt decay
    factors at its 2n half steps and the rotor slew reach (and its negative)
    at its n + 1 step ends, as (rows, 1) columns, then dt/2 and dt/6."""
    check_real("dt", dt, 0.0, strict=True)
    check_real("rotor_slew", rotor_slew, 0.0, strict=True)
    decay = np.exp(-(np.arange(1, 2 * n + 1) * (0.5 * dt)) / tau)[:, None]
    reach = np.arange(n + 1)[:, None] * (rotor_slew * dt)
    return decay, reach, -reach, 0.5 * dt, dt / 6.0


def hover_trim(m: Morphology, r_wb=None) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, omega) holding the vehicle static at attitude r_wb.

    The thrust cancels gravity and its torque about the body origin is
    r_com x f, so no torque acts about the center of mass.
    """
    r = np.eye(3) if r_wb is None else np.asarray(r_wb, dtype=float)
    f_b = -m.body.mass * (r.T @ m.body.gravity_w)
    wrench = np.concatenate([f_b, np.cross(m.body.r_com, f_b)])
    return invert_static(static_allocation(m), wrench, m)[:2]


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
    rng = np.random.default_rng(config.seed)
    ref0 = trajectory.sample(trajectory.t0)
    alpha_trim, omega_trim = hover_trim(morphology, ref0.r_wb)
    if alpha0 is not None:
        alpha_trim = check_vector("alpha0", alpha0, (morphology.n_arms,))

    plant = Plant(morphology, alpha=alpha_trim, omega=omega_trim, rotor_slew=config.rotor_slew)
    plant.state.p = ref0.p + (0.0 if p_offset is None
                              else check_vector("p_offset", p_offset, (3,)))
    plant.state.r_wb = ref0.r_wb.copy()
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

    divergence = None   # (time, cause) once the run diverges
    for tick in range(n_ticks):
        t = trajectory.t0 + tick * config.dt_control
        ref = trajectory.sample(t)

        est_state = plant.state.copy()
        if config.use_estimator:
            estimator_a.push(plant.state.a + rng.normal(0.0, config.sigma_a, 3))
            estimator_w.push(plant.state.omega + rng.normal(0.0, config.sigma_omega, 3))
            est_state.a = estimator_a.value()
            est_state.omega = estimator_w.value()
            est_state.psi = estimator_w.derivative(config.dt_control)

        out = controller.step(est_state, ref, config.dt_control)
        w_dot = exact_wrench_rate(out["j_w"], out["psi_dot"], est_state,
                                  morphology.body, allocator.wrench)
        alloc_out = allocator.step(w_dot, config.dt_control)
        alpha_ref = alloc_out["command"].alpha_ref
        omega_ref = alloc_out["command"].omega_ref

        eta = float(np.linalg.norm(plant.wrench[:3]) / max((c_f * plant.omega**2).sum(), 1e-30))
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
            plant.step(alpha_ref, omega_ref, config.dt_physics, steps_per_tick)
        except NonFiniteState as err:
            divergence = (t + err.step * config.dt_physics, "plant state turned non-finite")
            break

    log.divergence = divergence
    return log
