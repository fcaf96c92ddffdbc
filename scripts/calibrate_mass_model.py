#!/usr/bin/env python3
"""Regenerate the calibrated mass-model constants.

Solves for the component masses/geometry that make the flat six-arm layout
with 0.3 m arms weigh 4.0 kg with principal inertia {0.0725, 0.0725, 0.1439}
kg m^2, and prints the resulting MassModel fields (these are frozen into
tiltmav.mass_model.default_mass_model). Needs scipy (the ``test`` extra); the
library itself does not.
"""

from dataclasses import replace

import numpy as np
from scipy.optimize import least_squares

from tiltmav.mass_model import MassModel, compute_mass_inertia
from tiltmav.vehicle import evenly_spaced_arms


def _base_mass_model() -> MassModel:
    """Uncalibrated starting constants (component masses and geometry)."""
    return MassModel(
        m_core_const=1.2,
        m_arm_actuation=0.21,
        m_rotor_group=0.22,
        m_tube_per_m=0.12,
        r_core=0.10,
        h_core=0.08,
        r_tube_outer=0.008,
        r_tube_inner=0.0065,
        r_rotor=0.08,
        h_rotor=0.045,
    )


def calibrate_mass_model(
    target_mass: float = 4.0,
    target_inertia: tuple[float, float, float] = (0.0725, 0.0725, 0.1439),
    n_arms: int = 6,
    arm_length: float = 0.3,
    base: MassModel | None = None,
) -> MassModel:
    """Solve for (m_rotor_group, r_core) hitting the mass and inertia targets.

    The core constant mass absorbs whatever the mass budget leaves after the
    arms, which makes total mass exact by construction; the two free knobs
    then match J_xx and J_zz of the flat evenly spaced layout.
    """
    base = base or _base_mass_model()
    arms = evenly_spaced_arms(n_arms, arm_length)
    jxx_t, _, jzz_t = target_inertia

    x0 = np.array([base.m_rotor_group, base.r_core, base.h_core, base.m_tube_per_m])
    lo = np.array([0.05, 0.04, 0.02, 0.02])
    hi = np.array([0.45, 0.25, 0.25, 0.30])

    def build(x) -> MassModel:
        m_rot, r_core, h_core, m_tube_per_m = x
        m_core_const = target_mass - n_arms * (
            base.m_arm_actuation + m_tube_per_m * arm_length + m_rot)
        return replace(base, m_core_const=m_core_const, m_rotor_group=m_rot,
                       r_core=r_core, h_core=h_core, m_tube_per_m=m_tube_per_m)

    def residuals(x):
        m_core_const = target_mass - n_arms * (
            base.m_arm_actuation + x[3] * arm_length + x[0])
        if m_core_const <= 0.05:
            return np.array([1e3, 1e3, 0.0, 0.0, 0.0, 0.0])
        _, j = compute_mass_inertia(arms, build(x))
        # Weak priors keep the underdetermined solve near the base constants.
        prior = 1e-6 * (x - x0) / (hi - lo)
        return np.concatenate([[j[0, 0] - jxx_t, j[2, 2] - jzz_t], prior])

    sol = least_squares(residuals, x0=x0, bounds=(lo, hi), xtol=3e-16, ftol=3e-16,
                        gtol=3e-16, x_scale=np.array([0.1, 0.05, 0.05, 0.05]), max_nfev=2000)
    if np.abs(sol.fun[:2]).max() > 1e-8:
        raise ValueError(f"mass-model calibration failed (residual {np.abs(sol.fun[:2]).max():.2e})")
    return build(sol.x)


def main() -> None:
    model = calibrate_mass_model()
    print("Calibrated MassModel(")
    for name in model.__dataclass_fields__:
        print(f"    {name}={getattr(model, name)!r},")
    print(")")
    mass, inertia = compute_mass_inertia(evenly_spaced_arms(6, 0.3), model)
    print(f"check: mass = {mass:.6f} kg, J = {np.diag(inertia)} kg m^2")


if __name__ == "__main__":
    main()
