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
import math
import numbers
import re
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

GRAVITY = 9.81
#: World-frame gravity acceleration (z-up convention).
GRAVITY_W = np.array([0.0, 0.0, -GRAVITY])


def check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer >= least (true/false and 3.0 are not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value, floor: float = -math.inf, strict: bool = False) -> None:
    """Raise ValueError unless value is a finite real number (true/false is not)
    at or above floor, or strictly above it when strict."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and (value > floor if strict else value >= floor))):
        bound = "" if floor == -math.inf else f" {'>' if strict else '>='} {floor:g}"
        raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def check_bool(name: str, value) -> None:
    """Raise ValueError unless value is true or false (1 and "yes" are not)."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def check_vector(name: str, value, *shapes: tuple) -> np.ndarray:
    """value as a float array, or a ValueError unless it has one of the given
    shapes and each of its entries passes ``check_real``."""
    array = np.asarray(value, dtype=object)
    if array.shape not in shapes:
        raise ValueError(f"{name} must have shape {' or '.join(map(str, shapes))}, "
                         f"got {value!r}")
    for entry in array.flat:
        check_real(f"each entry of {name}", entry)
    return array.astype(float)


@dataclass(frozen=True)
class RotorParams:
    """Propeller constants shared by all rotors.

    c_f: thrust coefficient [N s^2 / rad^2], f = c_f * omega^2.
    c_d: drag moment arm relative to thrust [m]; a rotor's drag torque is
         c_d times its thrust.
    """

    c_f: float = 7.1e-6
    c_d: float = 0.016
    omega_min: float = 0.0
    omega_max: float = 1250.0
    rotors_per_arm: int = 2

    def __post_init__(self):
        check_real("c_f", self.c_f, 0.0, strict=True)
        check_real("c_d", self.c_d, 0.0)
        check_real("omega_min", self.omega_min, 0.0)
        check_real("omega_max", self.omega_max, self.omega_min, strict=True)
        check_int("rotors_per_arm", self.rotors_per_arm, 1)
        if self.rotors_per_arm > 2:
            raise ValueError(f"rotors_per_arm must be 1 or 2, got {self.rotors_per_arm}")


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
        for name in ("tau", "alpha_rate_max", "omega_accel_max"):
            check_real(name, getattr(self, name), 0.0, strict=True)


@dataclass(frozen=True)
class RigidBodyParams:
    """Mass properties. The rotor wrench is expressed about the body origin
    (the geometric center); r_com locates the center of mass in the body
    frame and the inertia, a 3x3 matrix or its diagonal, is taken about it."""

    mass: float
    inertia: np.ndarray
    r_com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gravity_w: np.ndarray = field(default_factory=lambda: GRAVITY_W.copy())

    def __post_init__(self):
        check_real("mass", self.mass, 0.0, strict=True)
        j = check_vector("inertia", self.inertia, (3, 3), (3,))
        j = np.diag(j) if j.ndim == 1 else j
        if np.abs(j - j.T).max() > 1e-9:
            raise ValueError("inertia must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(j) <= 0.0):
            raise ValueError("inertia must be positive definite")
        object.__setattr__(self, "inertia", j)
        for name in ("r_com", "gravity_w"):
            object.__setattr__(self, name, check_vector(name, getattr(self, name), (3,)))


@dataclass(frozen=True)
class ArmGeometry:
    gamma: float
    theta: float = 0.0
    beta: float = 0.0
    length: float = 0.3
    spins: tuple = (1, -1)

    def __post_init__(self):
        for name in ("gamma", "theta", "beta"):
            check_real(name, getattr(self, name))
        check_real("length", self.length, 0.0, strict=True)
        if abs(self.theta) >= np.pi / 2 or abs(self.beta) >= np.pi / 2:
            raise ValueError("|theta| and |beta| must be < pi/2")
        if not isinstance(self.spins, (list, tuple)) or any(
                isinstance(s, bool) or s not in (-1, 1) for s in self.spins):
            raise ValueError(f"spins must be a list of +1 and -1, got {self.spins!r}")
        object.__setattr__(self, "spins", tuple(self.spins))

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


def _fields(value, path: str, keys, required=(), rename=None) -> dict:
    """The keyword arguments of a JSON document's object at path.

    ``keys`` are the object's keys and ``required`` those it must state; a
    key is its field's name unless ``rename`` maps it onto another. A
    non-object, an unknown key or a missing required key raises ValueError
    naming its path.
    """
    where = path or "morphology"
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {', '.join(unknown)}")
    for key in required:
        if key not in value:
            raise ValueError(f"missing required key {f'{path}.{key}' if path else key}")
    rename = rename or {}
    return {rename.get(key, key): v for key, v in value.items()}


def _make(path: str, make, kwargs: dict, keys=None):
    """make(**kwargs), a rejected value reported under path, or under the
    document key that ``keys`` gives for the field the message names."""
    try:
        return make(**kwargs)
    except (TypeError, ValueError) as exc:
        for name, key in (keys or {}).items():
            if re.search(rf"\b{name}\b", str(exc)):
                raise ValueError(re.sub(rf"\b{name}\b", key, str(exc))) from exc
        raise ValueError(f"{path}: {exc}") from exc


_SECTIONS = ("arms", "rotor", "tilt", "body")
_RATE_LIMITS = {"alpha_dot": "alpha_rate_max", "omega_dot": "omega_accel_max"}
_BODY_KEYS = {"m": "mass", "J": "inertia"}
#: The document key of each field that a morphology document states under another name.
_KEY_PATHS = {**{name: f"body.{key}" for key, name in _BODY_KEYS.items()},
              **{name: f"tilt.rate_limits.{key}" for key, name in _RATE_LIMITS.items()}}


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
            raise ValueError(f"arms: need at least 3 arms, got {self.n_arms}")
        for i, arm in enumerate(self.arms):
            if len(arm.spins) != self.rotor.rotors_per_arm:
                raise ValueError(f"arms[{i}].spins has {len(arm.spins)} spin(s), but "
                                 f"rotor.rotors_per_arm is {self.rotor.rotors_per_arm}")
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
            "arms": [{**asdict(arm), "spins": list(arm.spins)} for arm in self.arms],
            "rotor": asdict(self.rotor),
            "tilt": {"tau": self.tilt.tau, "rate_limits": {
                key: getattr(self.tilt, name) for key, name in _RATE_LIMITS.items()}},
            "body": {"m": self.body.mass, "J": self.body.inertia.tolist(),
                     "r_com": self.body.r_com.tolist()},
        }

    @staticmethod
    def from_dict(data: dict) -> "Morphology":
        """Build from ``to_dict`` output, whose keys are the field names but
        for ``tilt.rate_limits`` and ``body.m``/``J``. A key left out takes
        its field's default; a non-object, a missing required key, an unknown
        key or a rejected value raises ValueError naming its path
        (``tilt.tau``, ``arms[2].gamma``, ...)."""
        # The arms come first, so a malformed list is named before a missing section.
        specs = _fields(data, "", _SECTIONS, ("arms",))["arms"]
        if not isinstance(specs, (list, tuple)):
            raise ValueError(f"arms must be a list of arm objects, got {specs!r}")
        arm_keys = [f.name for f in fields(ArmGeometry)]
        arms = [_make(f"arms[{i}]", ArmGeometry,
                      _fields(spec, f"arms[{i}]", arm_keys, ("gamma", "length", "spins")))
                for i, spec in enumerate(specs)]
        doc = _fields(data, "", _SECTIONS, _SECTIONS)
        rotor = _fields(doc["rotor"], "rotor", [f.name for f in fields(RotorParams)],
                        ("c_f", "c_d", "omega_max"))
        tilt = _fields(doc["tilt"], "tilt", ("tau", "rate_limits"), ("tau",))
        tilt.update(_fields(tilt.pop("rate_limits", {}), "tilt.rate_limits", _RATE_LIMITS,
                            rename=_RATE_LIMITS))
        body = _fields(doc["body"], "body", ("m", "J", "r_com"), ("m", "J"), rename=_BODY_KEYS)
        return Morphology(arms=arms, rotor=_make("rotor", RotorParams, rotor),
                          tilt=_make("tilt", TiltParams, tilt, _KEY_PATHS),
                          body=_make("body", RigidBodyParams, body, _KEY_PATHS))

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
