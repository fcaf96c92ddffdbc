"""Vehicle description: arm geometry, rotor/tilt parameters, rigid-body data.

A morphology bundles everything the allocation and dynamics need. Rotors are
indexed arm-major: rotor r sits on arm r // rotors_per_arm. Arm azimuth is
gamma + theta (theta is the per-arm yaw deviation from the evenly spaced
layout); beta inclines the arm axis out of the rotor plane about the arm's
local y axis, so the arm axis is

    x_arm = [cos(beta) cos(phi), cos(beta) sin(phi), sin(beta)],  phi = gamma + theta.

The tilt angle alpha rotates the thrust vector inside the circle orthogonal
to x_arm, from the "vertical" direction at alpha = 0 toward the "lateral"
(tangential) direction at alpha = pi/2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

GRAVITY = 9.81
#: World-frame gravity acceleration (z-up convention).
GRAVITY_W = np.array([0.0, 0.0, -GRAVITY])


@dataclass(frozen=True)
class RotorParams:
    """Propeller constants shared by all rotors.

    c_f: thrust coefficient [N s^2 / rad^2], f = c_f * omega^2.
    c_d: drag moment arm relative to thrust [m]; the rotor drag torque
         coefficient is c_m = c_f * c_d.
    """

    c_f: float = 7.1e-6
    c_d: float = 0.016
    omega_min: float = 0.0
    omega_max: float = 1250.0
    rotors_per_arm: int = 2

    def __post_init__(self):
        if self.c_f <= 0.0:
            raise ValueError("c_f must be positive")
        if not (0.0 <= self.omega_min < self.omega_max):
            raise ValueError("need 0 <= omega_min < omega_max")
        if self.rotors_per_arm not in (1, 2):
            raise ValueError("rotors_per_arm must be 1 or 2")

    @property
    def c_m(self) -> float:
        return self.c_f * self.c_d


@dataclass(frozen=True)
class TiltParams:
    """Tilt-motor dynamics and physical actuator rate limits.

    tau is the first-order time constant of the tilt servo. The rate limits
    bound the commanded derivatives after allocation (the unwinding task uses
    its own, typically smaller, speeds).
    """

    tau: float = 0.1
    alpha_rate_max: float = 6.0
    omega_accel_max: float = 2000.0

    def __post_init__(self):
        if self.tau <= 0.0 or self.alpha_rate_max <= 0.0 or self.omega_accel_max <= 0.0:
            raise ValueError("tilt parameters must be positive")


@dataclass(frozen=True)
class RigidBodyParams:
    """Mass properties. The rotor wrench is expressed about the body origin
    (the geometric center); r_com locates the center of mass in the body
    frame and the inertia is taken about it."""

    mass: float
    inertia: np.ndarray
    r_com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gravity_w: np.ndarray = field(default_factory=lambda: GRAVITY_W.copy())

    def __post_init__(self):
        object.__setattr__(self, "inertia", np.asarray(self.inertia, dtype=float))
        object.__setattr__(self, "r_com", np.asarray(self.r_com, dtype=float))
        object.__setattr__(self, "gravity_w", np.asarray(self.gravity_w, dtype=float))
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        j = self.inertia
        if j.shape != (3, 3) or np.abs(j - j.T).max() > 1e-9:
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(j) <= 0.0):
            raise ValueError("inertia must be positive definite")


@dataclass(frozen=True)
class ArmGeometry:
    index: int
    gamma: float
    theta: float = 0.0
    beta: float = 0.0
    length: float = 0.3
    spins: tuple = (1, -1)

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError("arm length must be positive")
        if abs(self.theta) >= np.pi / 2 or abs(self.beta) >= np.pi / 2:
            raise ValueError("|theta| and |beta| must be < pi/2")
        if any(s not in (-1, 1) for s in self.spins):
            raise ValueError("spins must be +-1")

    @property
    def azimuth(self) -> float:
        return self.gamma + self.theta

    def axis(self) -> np.ndarray:
        """Unit arm axis (the tilt axis) in the body frame."""
        cb, sb = np.cos(self.beta), np.sin(self.beta)
        cp, sp = np.cos(self.azimuth), np.sin(self.azimuth)
        return np.array([cb * cp, cb * sp, sb])

    def vertical_dir(self) -> np.ndarray:
        """Thrust direction at tilt angle 0."""
        cb, sb = np.cos(self.beta), np.sin(self.beta)
        cp, sp = np.cos(self.azimuth), np.sin(self.azimuth)
        return np.array([-sb * cp, -sb * sp, cb])

    def lateral_dir(self) -> np.ndarray:
        """Thrust direction at tilt angle pi/2 (tangential, independent of beta)."""
        cp, sp = np.cos(self.azimuth), np.sin(self.azimuth)
        return np.array([sp, -cp, 0.0])


@dataclass(frozen=True)
class Morphology:
    arms: tuple
    rotor: RotorParams
    tilt: TiltParams
    body: RigidBodyParams

    def __post_init__(self):
        object.__setattr__(self, "arms", tuple(self.arms))
        if self.n_arms < 3:
            raise ValueError("need at least 3 arms")
        for arm in self.arms:
            if len(arm.spins) != self.rotor.rotors_per_arm:
                raise ValueError("spin count must match rotors_per_arm")

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @property
    def n_rotors(self) -> int:
        return self.n_arms * self.rotor.rotors_per_arm

    @property
    def arm_of_rotor(self) -> np.ndarray:
        return np.arange(self.n_rotors) // self.rotor.rotors_per_arm

    @property
    def spins(self) -> np.ndarray:
        return np.array([s for arm in self.arms for s in arm.spins], dtype=float)

    def thrust_dir(self, arm_index: int, alpha: float) -> np.ndarray:
        arm = self.arms[arm_index]
        return np.sin(alpha) * arm.lateral_dir() + np.cos(alpha) * arm.vertical_dir()

    def to_dict(self) -> dict:
        return {
            "arms": [
                {
                    "gamma": arm.gamma,
                    "theta": arm.theta,
                    "beta": arm.beta,
                    "length": arm.length,
                    "spins": list(arm.spins),
                }
                for arm in self.arms
            ],
            "rotor": {
                "c_f": self.rotor.c_f,
                "c_d": self.rotor.c_d,
                "omega_min": self.rotor.omega_min,
                "omega_max": self.rotor.omega_max,
                "rotors_per_arm": self.rotor.rotors_per_arm,
            },
            "tilt": {
                "tau": self.tilt.tau,
                "rate_limits": {
                    "alpha_dot": self.tilt.alpha_rate_max,
                    "omega_dot": self.tilt.omega_accel_max,
                },
            },
            "body": {
                "m": self.body.mass,
                "J": self.body.inertia.tolist(),
                "r_com": self.body.r_com.tolist(),
            },
        }

    @staticmethod
    def from_dict(data: dict) -> "Morphology":
        arms = tuple(
            ArmGeometry(
                index=i,
                gamma=a["gamma"],
                theta=a.get("theta", 0.0),
                beta=a.get("beta", 0.0),
                length=a["length"],
                spins=tuple(a["spins"]),
            )
            for i, a in enumerate(data["arms"])
        )
        r = data["rotor"]
        rotor = RotorParams(
            c_f=r["c_f"],
            c_d=r["c_d"],
            omega_min=r.get("omega_min", RotorParams.omega_min),
            omega_max=r["omega_max"],
            rotors_per_arm=r.get("rotors_per_arm", RotorParams.rotors_per_arm),
        )
        t = data["tilt"]
        limits = t.get("rate_limits", {})
        tilt = TiltParams(
            tau=t["tau"],
            alpha_rate_max=limits.get("alpha_dot", TiltParams.alpha_rate_max),
            omega_accel_max=limits.get("omega_dot", TiltParams.omega_accel_max),
        )
        b = data["body"]
        inertia = np.asarray(b["J"], dtype=float)
        if inertia.ndim == 1:
            inertia = np.diag(inertia)
        body = RigidBodyParams(mass=b["m"], inertia=inertia, r_com=np.asarray(b.get("r_com", [0, 0, 0]), dtype=float))
        return Morphology(arms=arms, rotor=rotor, tilt=tilt, body=body)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @staticmethod
    def load(path) -> "Morphology":
        with open(path, encoding="utf-8") as fh:
            return Morphology.from_dict(json.load(fh))


def hex_arm_azimuths() -> np.ndarray:
    """Standard hexarotor arm spacing pi/6 * [1, 3, 5, 7, 9, 11]."""
    return np.pi / 6.0 * np.arange(1, 12, 2, dtype=float)


def hexarotor(
    betas: Sequence[float] | float = 0.0,
    thetas: Sequence[float] | float = 0.0,
    arm_length: float = 0.3,
    rotor: RotorParams | None = None,
    tilt: TiltParams | None = None,
    body: RigidBodyParams | None = None,
) -> Morphology:
    """Six-arm, twelve-rotor morphology with alternating upper spin directions."""
    betas = np.broadcast_to(np.asarray(betas, dtype=float), (6,))
    thetas = np.broadcast_to(np.asarray(thetas, dtype=float), (6,))
    rotor = rotor or RotorParams()
    arms = []
    for i, gamma in enumerate(hex_arm_azimuths()):
        s_up = 1 if i % 2 == 0 else -1
        spins = (s_up, -s_up) if rotor.rotors_per_arm == 2 else (s_up,)
        arms.append(
            ArmGeometry(index=i, gamma=float(gamma), theta=float(thetas[i]),
                        beta=float(betas[i]), length=arm_length, spins=spins)
        )
    if body is None:
        body = RigidBodyParams(mass=4.27, inertia=np.diag([0.086, 0.088, 0.16]))
    return Morphology(arms=tuple(arms), rotor=rotor, tilt=tilt or TiltParams(), body=body)


def prototype_morphology() -> Morphology:
    """The flat, dual-rotor hexarotor prototype (mass 4.27 kg, 0.3 m arms)."""
    return hexarotor()
