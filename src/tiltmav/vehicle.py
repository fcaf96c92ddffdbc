"""Vehicle description: arm geometry, rotor/tilt parameters, rigid-body data.

A morphology bundles everything the allocation and dynamics need, and
states the per-arm geometry once, as arrays that every layer reads.

Layout (``evenly_spaced_arms``). Arm i sits at the base azimuth
gamma_i = (2i + 1) pi / 6 on six arms (the prototype's spacing) and
gamma_i = 2 pi i / n on any other count n; theta_i yaws it off that layout,
so its azimuth is phi_i = gamma_i + theta_i, and beta_i inclines it out of
the rotor plane. Upper rotors spin +1, -1, +1, ... around the arms, and the
lower rotor of a dual-rotor arm spins opposite its upper one. Rotors are
indexed arm-major: rotor r sits on arm r // rotors_per_arm.

Frame (``arm_frames``). Each arm carries the orthonormal triad

    axis     = [cos(beta) cos(phi), cos(beta) sin(phi), sin(beta)]   (the tilt axis)
    lateral  = [sin(phi), -cos(phi), 0]                              (thrust at alpha = pi/2)
    vertical = [-sin(beta) cos(phi), -sin(beta) sin(phi), cos(beta)] (thrust at alpha = 0)

so the tilt angle alpha turns the thrust direction
sin(alpha) lateral + cos(alpha) vertical inside the circle orthogonal to
the axis, and the arm's orientation in the body is
[axis, -lateral, vertical] = R_z(phi) R_y(-beta).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

GRAVITY = 9.81
#: World-frame gravity acceleration (z-up convention).
GRAVITY_W = np.array([0.0, 0.0, -GRAVITY])


def check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer >= least (true/false and 3.0 are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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


def arm_frames(phi, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit axis, lateral and vertical vector of each arm at azimuth phi and
    inclination beta, (..., n_arms, 3) each for (..., n_arms) angle arrays."""
    phi = np.asarray(phi, dtype=float)
    beta = np.asarray(beta, dtype=float)
    cb, sb = np.cos(beta), np.sin(beta)
    cp, sp = np.cos(phi), np.sin(phi)
    axis = np.stack([cb * cp, cb * sp, sb], axis=-1)
    lateral = np.stack([sp, -cp, np.zeros_like(phi)], axis=-1)
    vertical = np.stack([-sb * cp, -sb * sp, cb], axis=-1)
    return axis, lateral, vertical


def layout_azimuths(n_arms: int) -> np.ndarray:
    """Base azimuths gamma_i of the evenly spaced layout."""
    return (np.pi / 6.0 * np.arange(1, 12, 2, dtype=float) if n_arms == 6
            else np.linspace(0.0, 2.0 * np.pi, n_arms, endpoint=False))


def evenly_spaced_arms(n_arms: int, length: float, thetas: Sequence[float] | float = 0.0,
                       betas: Sequence[float] | float = 0.0,
                       rotors_per_arm: int = RotorParams.rotors_per_arm) -> tuple:
    """The arms of the evenly spaced layout with alternating spins."""
    thetas = np.broadcast_to(np.asarray(thetas, dtype=float), (n_arms,))
    betas = np.broadcast_to(np.asarray(betas, dtype=float), (n_arms,))
    arms = []
    for i, gamma in enumerate(layout_azimuths(n_arms)):
        s_up = 1 if i % 2 == 0 else -1
        arms.append(ArmGeometry(gamma=float(gamma), theta=float(thetas[i]), beta=float(betas[i]),
                                length=length, spins=(s_up, -s_up)[:rotors_per_arm]))
    return tuple(arms)


def _required(section: dict, key: str, prefix: str = ""):
    """section[key], or a ValueError naming the path of a missing key or a non-object."""
    if not isinstance(section, dict):
        raise ValueError(f"{prefix.rstrip('.') or 'morphology'} must be an object, "
                         f"got {section!r}")
    if key not in section:
        raise ValueError(f"morphology is missing required key {prefix}{key}")
    return section[key]


@dataclass(frozen=True)
class Morphology:
    """One vehicle: its arms, rotors, tilt servos and rigid body.

    Construction derives, once, the per-arm arrays ``arm_axes``,
    ``lateral_dirs``, ``vertical_dirs`` (n_arms, 3) and ``arm_lengths``, and
    the per-rotor ``spins`` and ``arm_of_rotor``; every layer reads these.
    """

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
        # Frozen: the derived arrays go into __dict__ directly.
        axes, lateral, vertical = arm_frames([arm.azimuth for arm in self.arms],
                                             [arm.beta for arm in self.arms])
        vars(self).update(
            arm_axes=axes, lateral_dirs=lateral, vertical_dirs=vertical,
            arm_lengths=np.array([arm.length for arm in self.arms]),
            spins=np.array([s for arm in self.arms for s in arm.spins], dtype=float),
            arm_of_rotor=np.arange(self.n_rotors) // self.rotor.rotors_per_arm)

    @property
    def n_arms(self) -> int:
        return len(self.arms)

    @property
    def n_rotors(self) -> int:
        return self.n_arms * self.rotor.rotors_per_arm

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
        """Build from ``to_dict`` output; a missing required key raises
        ValueError naming its path (``tilt.tau``, ``arms[2].gamma``, ...)."""
        arm_specs = _required(data, "arms")
        if not isinstance(arm_specs, (list, tuple)):
            raise ValueError(f"arms must be a list of arm objects, got {arm_specs!r}")
        arms = tuple(
            ArmGeometry(
                gamma=_required(a, "gamma", f"arms[{i}]."),
                theta=a.get("theta", 0.0),
                beta=a.get("beta", 0.0),
                length=_required(a, "length", f"arms[{i}]."),
                spins=tuple(_required(a, "spins", f"arms[{i}].")),
            )
            for i, a in enumerate(arm_specs)
        )
        r = _required(data, "rotor")
        rotor = RotorParams(
            c_f=_required(r, "c_f", "rotor."),
            c_d=_required(r, "c_d", "rotor."),
            omega_min=r.get("omega_min", RotorParams.omega_min),
            omega_max=_required(r, "omega_max", "rotor."),
            rotors_per_arm=r.get("rotors_per_arm", RotorParams.rotors_per_arm),
        )
        t = _required(data, "tilt")
        tau = _required(t, "tau", "tilt.")
        limits = t.get("rate_limits", {})
        if not isinstance(limits, dict):
            raise ValueError(f"tilt.rate_limits must be an object, got {limits!r}")
        tilt = TiltParams(
            tau=tau,
            alpha_rate_max=limits.get("alpha_dot", TiltParams.alpha_rate_max),
            omega_accel_max=limits.get("omega_dot", TiltParams.omega_accel_max),
        )
        b = _required(data, "body")
        inertia = np.asarray(_required(b, "J", "body."), dtype=float)
        if inertia.ndim == 1:
            inertia = np.diag(inertia)
        body = RigidBodyParams(mass=_required(b, "m", "body."), inertia=inertia,
                               r_com=np.asarray(b.get("r_com", [0, 0, 0]), dtype=float))
        return Morphology(arms=arms, rotor=rotor, tilt=tilt, body=body)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @staticmethod
    def load(path) -> "Morphology":
        with open(path, encoding="utf-8") as fh:
            return Morphology.from_dict(json.load(fh))


def hexarotor(
    betas: Sequence[float] | float = 0.0,
    thetas: Sequence[float] | float = 0.0,
    arm_length: float = 0.3,
    rotor: RotorParams | None = None,
    tilt: TiltParams | None = None,
    body: RigidBodyParams | None = None,
) -> Morphology:
    """Six-arm morphology of the evenly spaced layout."""
    rotor = rotor or RotorParams()
    arms = evenly_spaced_arms(6, arm_length, thetas, betas, rotor.rotors_per_arm)
    if body is None:
        body = RigidBodyParams(mass=4.27, inertia=np.diag([0.086, 0.088, 0.16]))
    return Morphology(arms=arms, rotor=rotor, tilt=tilt or TiltParams(), body=body)


def prototype_morphology() -> Morphology:
    """The flat, dual-rotor hexarotor prototype (mass 4.27 kg, 0.3 m arms)."""
    return hexarotor()
