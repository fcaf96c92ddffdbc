#!/usr/bin/env python3
"""Regenerate the calibrated mass-model constants.

Solves for the component masses/geometry that make the flat six-arm layout
with 0.3 m arms weigh 4.0 kg with principal inertia {0.0725, 0.0725, 0.1439}
kg m^2, and prints the resulting MassModel fields (these are frozen into
tiltmav.mass_model.default_mass_model).
"""

import numpy as np

from tiltmav.mass_model import calibrate_mass_model, compute_mass_inertia
from tiltmav.vehicle import evenly_spaced_arms


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
