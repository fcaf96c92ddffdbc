"""Benchmark PID controller emitting jerk commands.

Acceleration commands come from proportional/integral/derivative action on
the pose error (errors taken as reference minus state so positive gains are
stabilizing); jerk is their backward difference. Like the LQRI controller,
the step emits the world jerk and the body angular-acceleration rate; its
logged input ``u`` holds the linear jerk rotated into the body frame. The
first step returns zero jerk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rigid_body import RigidBodyState
from .so3 import attitude_error
from .trajectory import TrajectorySample

#: Integrator clamps: position [m s], attitude [rad s].
WINDUP_P = 2.0
WINDUP_R = 1.0


@dataclass(frozen=True)
class PidGains:
    k_p: float = 5.0
    k_p_i: float = 0.3
    k_v: float = 1.0
    k_r: float = 3.5
    k_r_i: float = 0.3
    k_omega: float = 0.8
    #: Slew limits of the differenced jerk: linear [m/s^3], angular [rad/s^3].
    j_max_lin: float = 10.0
    j_max_ang: float = 60.0


@dataclass
class PidController:
    """PID acceleration law with differenced jerk output.

    The differenced command is slew limited through an applied-acceleration
    tracker: the emitted jerk is still exactly the finite difference of the
    applied series, but a large command level is spread over several steps
    instead of one spike that downstream actuator-rate saturation would
    truncate and lose. Infinite limits give plain differencing.
    """

    gains: PidGains = field(default_factory=PidGains)

    def __post_init__(self):
        self.reset()

    def reset(self) -> None:
        # Zero-acceleration history: engagement at equilibrium commands, so a
        # zero-error first step produces zero jerk while a pre-existing
        # offset is injected instead of silently rebased away.
        self.e_p_i = np.zeros(3)
        self.e_r_i = np.zeros(3)
        self._applied_a = np.zeros(3)
        self._applied_psi = np.zeros(3)

    def step(self, state: RigidBodyState, ref: TrajectorySample, dt: float) -> dict:
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        g = self.gains
        e_p = ref.p - state.p
        e_v = ref.v - state.v
        # attitude_error(R, Rd) is state-minus-reference; flip the arguments.
        e_r = attitude_error(ref.r_wb, state.r_wb)
        omega_ref_b = state.r_wb.T @ (ref.r_wb @ ref.omega_b)
        e_omega = omega_ref_b - state.omega
        self.e_p_i = np.clip(self.e_p_i + dt * e_p, -WINDUP_P, WINDUP_P)
        self.e_r_i = np.clip(self.e_r_i + dt * e_r, -WINDUP_R, WINDUP_R)

        # Reference feedforward on top of the PID action: without it the
        # soft position gains cannot follow multi-m/s^2 references at all.
        psi_ff = state.r_wb.T @ (ref.r_wb @ ref.psi_b)
        a_cmd = ref.a + g.k_p * e_p + g.k_v * e_v + g.k_p_i * self.e_p_i
        psi_cmd = psi_ff + g.k_r * e_r + g.k_omega * e_omega + g.k_r_i * self.e_r_i

        j_w = (a_cmd - self._applied_a) / dt
        zeta_b = (psi_cmd - self._applied_psi) / dt
        if np.abs(j_w).max() > g.j_max_lin:
            j_w = np.clip(j_w, -g.j_max_lin, g.j_max_lin)
            self._applied_a = self._applied_a + dt * j_w
        else:
            self._applied_a = a_cmd
        if np.abs(zeta_b).max() > g.j_max_ang:
            zeta_b = np.clip(zeta_b, -g.j_max_ang, g.j_max_ang)
            self._applied_psi = self._applied_psi + dt * zeta_b
        else:
            self._applied_psi = psi_cmd

        # The world jerk handed on is the rotation of the logged body jerk, so
        # the allocator acts on exactly the logged input.
        j_b = state.r_wb.T @ j_w
        return {
            "j_w": state.r_wb @ j_b,
            "psi_dot": zeta_b,
            "e_p": -e_p,   # logged in the state-minus-reference convention
            "e_r": -e_r,
            "u": np.concatenate([j_b, zeta_b]),
            "stab": (np.nan, np.nan, True),   # no stability test for the PID
            "a_cmd": self._applied_a.copy(),
            "psi_cmd": self._applied_psi.copy(),
            "a_target": a_cmd,
        }
