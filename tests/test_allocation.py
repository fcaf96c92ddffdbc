import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltmav.allocation import (GRAM_EPS, condition_number, instantaneous_allocation,
                                invert_static, static_allocation)
from tiltmav.vehicle import (Morphology, RigidBodyParams, RotorParams, TiltParams,
                             evenly_spaced_arms, hexarotor, prototype_morphology)

from oracles import (invert_static_loop, invert_static_pinv, omega_tilde, random_morphology,
                     static_allocation_loop)


def _gram_ratio(a, alpha, m):
    """lambda_min / lambda_max of A_alpha A_alpha' at tilt angles alpha (or rows)."""
    a_alpha = instantaneous_allocation(a, alpha, m.arm_of_rotor)
    lam = np.linalg.eigvalsh(a_alpha @ np.swapaxes(a_alpha, -1, -2))
    return lam[..., 0] / lam[..., -1]


def test_rotor_wrench_table_values():
    # One rotor's column of the instantaneous map, the plant's wrench map.
    m = prototype_morphology()
    params = m.rotor
    column = instantaneous_allocation(static_allocation(m), np.zeros(m.n_arms),
                                      m.arm_of_rotor)[:, 0]
    f = np.linalg.norm(column[:3]) * 1250.0**2
    assert abs(f - 11.09375) < 1e-9          # the ~11 N per-rotor maximum
    # Drag torque along the thrust axis; the moment of the thrust is normal to it.
    drag = abs(column[3:] @ column[:3]) / np.linalg.norm(column[:3]) * 1250.0**2
    assert np.isclose(drag, params.c_f * params.c_d * 1250.0**2)
    assert np.isclose(np.linalg.norm(column[:3]) * 500.0**2, 1.775)


def test_static_allocation_vertical_column_flat_hex():
    m = prototype_morphology()
    a = static_allocation(m)
    c_f = m.rotor.c_f
    # Arm with azimuth pi/2 is arm index 1 (azimuths pi/6 * [1,3,5,...]).
    rotor = 2  # first rotor of arm 1
    vert = a[:3, 2 * rotor + 1]
    assert np.allclose(vert, [0.0, 0.0, c_f], atol=1e-18)
    # Force block of every vertical column has norm c_f.
    for r in range(m.n_rotors):
        assert np.isclose(np.linalg.norm(a[:3, 2 * r + 1]), c_f)


def test_static_allocation_drag_free_z_torque():
    m = hexarotor(rotor=RotorParams(c_d=1e-300))
    a = static_allocation(m)
    c_f, l = m.rotor.c_f, m.arms[0].length
    for r in range(m.n_rotors):
        # Vertical-column z-torque is purely drag, so it vanishes at c_d=0;
        # the lateral column carries the -l*c_f moment.
        assert abs(a[5, 2 * r + 1]) < 1e-12 * c_f
        assert np.isclose(a[5, 2 * r], -l * c_f)


def test_omega_tilde_examples():
    arm_of_rotor = np.array([0, 1])
    out = omega_tilde(np.array([1.0, 1.0]), np.zeros(2), arm_of_rotor)
    assert np.allclose(out, [0.0, 1.0, 0.0, 1.0])
    out = omega_tilde(np.array([4.0]), np.array([np.pi / 2]), np.array([0]))
    assert np.allclose(out, [4.0, 0.0], atol=1e-12)
    out = omega_tilde(np.array([2.0]), np.array([np.pi / 4]), np.array([0]))
    assert np.allclose(out, [np.sqrt(2.0), np.sqrt(2.0)])


def test_omega_tilde_dimension_error():
    with pytest.raises(ValueError):
        omega_tilde(np.ones(3), np.zeros(2), np.array([0, 1]))
    with pytest.raises(ValueError):
        omega_tilde(np.ones(2), np.zeros(1), np.array([0, 1]))


def test_instantaneous_consistency_random():
    m = prototype_morphology()
    a = static_allocation(m)
    rng = np.random.default_rng(7)
    for _ in range(200):
        alpha = rng.uniform(-np.pi, np.pi, m.n_arms)
        omega_sq = rng.uniform(0, m.rotor.omega_max**2, m.n_rotors)
        a_inst = instantaneous_allocation(a, alpha, m.arm_of_rotor)
        w1 = a_inst @ omega_sq
        w2 = a @ omega_tilde(omega_sq, alpha, m.arm_of_rotor)
        assert np.linalg.norm(w1 - w2) <= 1e-10 * max(np.linalg.norm(w1), 1e-30)


def test_flat_hex_lateral_rows_vanish_at_zero_tilt():
    m = hexarotor(rotor=RotorParams(c_d=1e-300))
    a = static_allocation(m)
    a_inst = instantaneous_allocation(a, np.zeros(6), m.arm_of_rotor)
    assert np.abs(a_inst[0:2, :]).max() < 1e-18


def test_all_lateral_kills_fz():
    m = hexarotor()
    a = static_allocation(m)
    a_inst = instantaneous_allocation(a, np.full(6, np.pi / 2), m.arm_of_rotor)
    assert np.abs(a_inst[2, :]).max() < 1e-18


def test_condition_number():
    assert condition_number(np.eye(6)) == 1.0
    m = hexarotor(rotor=RotorParams(c_d=1e-300))
    a = static_allocation(m)
    a_inst = instantaneous_allocation(a, np.zeros(6), m.arm_of_rotor)
    assert condition_number(a_inst) == np.inf
    # scale invariance
    rng = np.random.default_rng(8)
    mat = rng.normal(size=(6, 12))
    assert np.isclose(condition_number(mat), condition_number(3.7 * mat))
    assert condition_number(np.zeros((6, 12))) == np.inf


def test_invert_static_roundtrip():
    m = prototype_morphology()
    a = static_allocation(m)
    wrench = np.array([3.0, -2.0, 50.0, 0.5, -0.2, 0.1])
    alpha, omega, _ = invert_static(a, wrench, m)
    w_back = a @ omega_tilde(omega**2, alpha, m.arm_of_rotor)
    assert np.allclose(w_back, wrench, atol=1e-8)


@st.composite
def _actuated_vehicles(draw):
    """An evenly spaced morphology with a non-negative actuator set (alpha, omega**2)."""
    n_arms, rotors_per_arm = draw(st.integers(3, 8)), draw(st.integers(1, 2))

    def values(elements, size):
        return np.array(draw(st.lists(elements, min_size=size, max_size=size)))

    angles = st.floats(-1.5, 1.5)
    arms = evenly_spaced_arms(n_arms, 0.3, values(angles, n_arms), values(angles, n_arms),
                              rotors_per_arm)
    m = Morphology(arms, RotorParams(rotors_per_arm=rotors_per_arm), TiltParams(),
                   RigidBodyParams(mass=4.0, inertia=np.eye(3)))
    # invert_static's thrust floor is relative, so any squared speeds will do.
    speeds_sq = st.floats(0.0, m.rotor.omega_max**2)
    return m, values(st.floats(-np.pi, np.pi), n_arms), values(speeds_sq, m.n_rotors)


def _flat_octorotor_last_rotor():
    """Flat 8-arm layout, alpha = 0, omega**2 = e_8: A_alpha has sigma_min/sigma_max ~ 7e-15."""
    arms = evenly_spaced_arms(8, 0.3, 0.0, 0.0, 1)
    m = Morphology(arms, RotorParams(rotors_per_arm=1), TiltParams(),
                   RigidBodyParams(mass=4.0, inertia=np.eye(3)))
    return m, np.zeros(8), np.eye(8)[7]


@settings(max_examples=300, deadline=None)
@given(_actuated_vehicles())
@example(_flat_octorotor_last_rotor())
def test_invert_static_round_trip(vehicle):
    # The wrench of a non-negative actuator set comes back from
    # A_alpha @ omega**2 wherever the re-solved omega**2 is non-negative.
    m, alpha_set, omega_sq_set = vehicle
    a = static_allocation(m)
    wrench = a @ omega_tilde(omega_sq_set, alpha_set, m.arm_of_rotor)
    alpha, omega, _ = invert_static(a, wrench, m)
    a_alpha = instantaneous_allocation(a, alpha, m.arm_of_rotor)
    if np.all(np.linalg.pinv(a_alpha) @ wrench >= 0.0):
        assert np.linalg.norm(a_alpha @ omega**2 - wrench) <= 1e-9 * np.linalg.norm(wrench)


def test_flat_octorotor_takes_the_svd_fallback():
    # sigma_min/sigma_max ~ 7e-15 at the re-solve's tilt angles: the normal
    # equations would square that, so the rank rule's SVD decides the speeds.
    m, alpha_set, omega_sq_set = _flat_octorotor_last_rotor()
    a = static_allocation(m)
    wrench = a @ omega_tilde(omega_sq_set, alpha_set, m.arm_of_rotor)
    got = invert_static(a, wrench, m)
    assert _gram_ratio(a, got[0], m) <= GRAM_EPS
    for got_part, want in zip(got, invert_static_pinv(a, wrench, m)):
        assert got_part.tobytes() == want.tobytes()


def test_gated_resolve_matches_the_svd_form():
    # Where the Gram eigenvalues clear GRAM_EPS the normal equations give the
    # pinv speeds to 1e-9 of the largest; elsewhere the SVD form itself runs.
    rng = np.random.default_rng(59)
    sides = set()
    for _ in range(200):
        m = random_morphology(rng)
        a = static_allocation(m)
        wrenches = rng.normal(0.0, 20.0, (4, 6))
        hold = rng.uniform(-3.0, 3.0, m.n_arms)
        got, want = invert_static(a, wrenches, m, hold), invert_static_pinv(a, wrenches, m, hold)
        assert got[0].tobytes() == want[0].tobytes() and got[2].tobytes() == want[2].tobytes()
        omega_sq, want_sq = got[1] ** 2, want[1] ** 2
        for row, ratio in enumerate(_gram_ratio(a, got[0], m)):
            sides.add(bool(ratio > GRAM_EPS))
            if ratio > GRAM_EPS:
                assert np.abs(omega_sq[row] - want_sq[row]).max() <= 1e-9 * want_sq[row].max()
            else:
                assert got[1][row].tobytes() == want[1][row].tobytes()
    assert sides == {False, True}


def test_invert_static_holds_degenerate_arm():
    m = prototype_morphology()
    a = static_allocation(m)
    hold = np.full(6, 0.7)
    alpha, omega, _ = invert_static(a, np.zeros(6), m, alpha_hold=hold)
    assert np.allclose(alpha, hold)
    assert np.allclose(omega, 0.0)


def test_array_forms_equal_the_per_arm_loops():
    # The array kernels keep the loops' arithmetic, so they agree bit for bit.
    rng = np.random.default_rng(5)
    for trial in range(300):
        m = random_morphology(rng)
        a = static_allocation(m)
        assert np.array_equal(a, static_allocation_loop(m))
        wrench = np.zeros(6) if trial % 10 == 0 else rng.normal(0.0, 20.0, 6)
        hold = rng.uniform(-3.0, 3.0, m.n_arms) if trial % 2 else None
        for got, want in zip(invert_static(a, wrench, m, alpha_hold=hold),
                             invert_static_loop(a, wrench, m, alpha_hold=hold)):
            assert np.array_equal(got, want)


def test_stacks_equal_the_row_by_row_calls():
    # A stack runs each row through the arithmetic of one call, so the rows
    # agree byte for byte, rank-loss (inf) rows and rows on both sides of the
    # re-solve's GRAM_EPS gate included.
    rng = np.random.default_rng(41)
    sides = set()
    for _ in range(40):
        m = random_morphology(rng)
        a = static_allocation(m)
        wrenches = rng.normal(0.0, 20.0, (2, 5, 6))
        wrenches[0, 0] = 0.0      # no thrust anywhere: every arm holds
        for hold in (None, rng.uniform(-3.0, 3.0, m.n_arms),
                     rng.uniform(-3.0, 3.0, (2, 5, m.n_arms))):
            stacked = invert_static(a, wrenches, m, alpha_hold=hold)
            sides.update((_gram_ratio(a, stacked[0], m) > GRAM_EPS).flat)
            for idx in np.ndindex(2, 5):
                row_hold = hold if hold is None or hold.ndim == 1 else hold[idx]
                for got, want in zip(stacked, invert_static(a, wrenches[idx], m, row_hold)):
                    assert got[idx].tobytes() == want.tobytes()
        a_alpha = instantaneous_allocation(a, stacked[0], m.arm_of_rotor)
        a_alpha[0, 1] = 0.0
        a_alpha[1, 2, :, 1:] = 0.0
        kappa = condition_number(a_alpha)
        assert kappa.shape == (2, 5) and np.isinf(kappa[0, 1]) and np.isinf(kappa[1, 2])
        rows = [[condition_number(mat) for mat in row] for row in a_alpha]
        assert kappa.tobytes() == np.array(rows).tobytes()
    assert type(condition_number(a_alpha[0, 0])) is float
    assert sides == {False, True}
