"""Parametric mass and inertia model for morphology studies.

The vehicle is reduced to a solid core cylinder, one tube per arm, and one
tilt-averaged rotor-group cylinder per arm. Component inertias are expressed
at the body origin with the parallel axis theorem and rotated by each arm's
orientation [axis, -lateral, vertical] = R_z(gamma + theta) R_y(-beta) (see
``tiltmav.vehicle``).

The default constants are calibrated (by scripts/calibrate_mass_model.py) so
the flat six-arm layout with 0.3 m arms reproduces a 4.0 kg vehicle with
principal inertia {0.0725, 0.0725, 0.1439}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .vehicle import ArmGeometry, arm_frames, check_real


@dataclass(frozen=True)
class MassModel:
    m_core_const: float
    m_arm_actuation: float
    m_rotor_group: float
    m_tube_per_m: float
    r_core: float
    h_core: float
    r_tube_outer: float
    r_tube_inner: float
    r_rotor: float
    h_rotor: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            check_real(name, getattr(self, name), 0.0, strict=True)


def default_mass_model() -> MassModel:
    # Calibrated constants; regenerate with scripts/calibrate_mass_model.py.
    return MassModel(
        m_core_const=2.029735067320936,
        m_arm_actuation=0.21,
        m_rotor_group=0.08188975688693721,
        m_tube_per_m=0.12162577297635592,
        r_core=0.23635100203468917,
        h_core=0.020000000000000004,
        r_tube_outer=0.008,
        r_tube_inner=0.0065,
        r_rotor=0.08,
        h_rotor=0.045,
    )


def compute_mass_inertia(arms: Sequence[ArmGeometry], model: MassModel) -> tuple[float, np.ndarray]:
    """Total mass and inertia at the body origin for the given arm layout."""
    n = len(arms)
    m_core = model.m_core_const + n * model.m_arm_actuation
    j = np.diag([
        m_core * (3.0 * model.r_core**2 + model.h_core**2) / 12.0,
        m_core * (3.0 * model.r_core**2 + model.h_core**2) / 12.0,
        0.5 * m_core * model.r_core**2,
    ])
    length = np.array([arm.length for arm in arms])
    m_tube = model.m_tube_per_m * length
    m_rot = model.m_rotor_group
    r_sq = model.r_tube_outer**2 + model.r_tube_inner**2
    trans = m_rot * (3.0 * model.r_rotor**2 + model.h_rotor**2) / 12.0
    axial = 0.5 * m_rot * model.r_rotor**2

    # Each arm in its own frame (x along the arm): the tube about its center
    # plus the rotor group, both shifted to the origin by the parallel axis
    # theorem. float_power rounds as a Python float's ** (libm pow) and the
    # shifts as x * x, so each term matches the per-arm form bit for bit.
    j_arm = np.zeros((n, 3, 3))
    j_arm[:, 0, 0] = 0.5 * m_tube * r_sq + trans
    j_arm[:, 1, 1] = j_arm[:, 2, 2] = (
        m_tube * (3.0 * r_sq + np.float_power(length, 2)) / 12.0 + m_tube * (0.5 * length)**2
        + 0.5 * (trans + axial) + m_rot * length**2)
    axis, lateral, vertical = arm_frames([arm.azimuth for arm in arms], [arm.beta for arm in arms])
    r_b_arm = np.stack([axis, -lateral, vertical], axis=2)
    terms = r_b_arm @ j_arm @ r_b_arm.transpose(0, 2, 1)
    # Both sums add the arms one by one onto the core; a pairwise sum would
    # round differently.
    mass = np.add.accumulate(np.concatenate([[m_core], m_tube + m_rot]))[-1]
    j = np.add.reduce(np.concatenate([j[None], terms]), axis=0)
    return float(mass), j
