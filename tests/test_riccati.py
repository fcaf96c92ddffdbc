import numpy as np
import pytest

from tiltmav.lqri import LqriGains, linearized_system
from tiltmav.riccati import CareError, care_residual, lqr_gain, solve_care

from oracles import bass_stabilizing_gain, kleinman_newton


def test_scalar_closed_form():
    for q, r in ((1.0, 1.0), (4.0, 0.25), (10.0, 3.0)):
        p = solve_care([[0.0]], [[1.0]], [[q]], [[r]])
        assert abs(p[0, 0] - np.sqrt(q * r)) < 1e-9
        p2 = kleinman_newton([[0.0]], [[1.0]], [[q]], [[r]])
        assert abs(p2[0, 0] - np.sqrt(q * r)) < 1e-9


def test_double_integrator_gain():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    p = solve_care(a, b, np.eye(2), [[1.0]])
    k = lqr_gain(p, b, [[1.0]])
    assert np.allclose(k, [[1.0, np.sqrt(3.0)]], atol=1e-9)


def test_random_systems_match_kleinman_newton():
    rng = np.random.default_rng(12)
    for _ in range(10):
        n, m = 5, 2
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, m))
        q_half = rng.normal(size=(n, n))
        q = q_half @ q_half.T + 0.1 * np.eye(n)
        r = np.diag(rng.uniform(0.5, 2.0, m))
        p = solve_care(a, b, q, r)
        p_kn = kleinman_newton(a, b, q, r)
        assert np.linalg.norm(p - p_kn) / np.linalg.norm(p) < 1e-8
        assert care_residual(a, b, q, r, p) < 1e-8
        assert np.abs(p - p.T).max() < 1e-10 * max(np.abs(p).max(), 1.0)
        # stabilizing
        k = lqr_gain(p, b, r)
        assert np.linalg.eigvals(a - b @ k).real.max() < 0.0


def test_bass_gain_stabilizes():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 2))
    k = bass_stabilizing_gain(a, b)
    assert np.linalg.eigvals(a - b @ k).real.max() < 0.0


def test_non_stabilizable_raises():
    # Unstable mode with no control authority.
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(CareError):
        solve_care(a, b, np.eye(2), [[1.0]])


def test_inconsistent_dimensions_are_rejected():
    a, q, r = np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), [[1.0]]
    for args in ((a, [[0.0], [1.0], [0.0]], q, r), (a, [[0.0], [1.0]], np.eye(3), r),
                 (np.ones((2, 3)), [[0.0], [1.0]], q, r),
                 # B is an (n, m) matrix: a 1-D B is not read as one column.
                 (a, [0.0, 1.0], q, r), ([[0.0]], [1.0], [[1.0]], [[1.0]])):
        with pytest.raises(ValueError, match="inconsistent CARE dimensions"):
            solve_care(*args)
        with pytest.raises(ValueError, match="inconsistent CARE dimensions"):
            care_residual(*args, np.eye(len(args[0])))


def test_indefinite_r_rejected():
    with pytest.raises(CareError):
        solve_care([[0.0]], [[1.0]], [[1.0]], [[-1.0]])


def test_imaginary_axis_hamiltonians_raise_care_error():
    # H singular: an integrator that B cannot move.
    with pytest.raises(CareError):
        solve_care([[0.0]], [[0.0]], [[1.0]], [[1.0]])
    # Undetectable double integrator: Q does not see the position.
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(CareError):
        solve_care(a, b, np.diag([0.0, 1.0]), [[1.0]])
    # An undamped oscillator that neither B nor Q sees: H keeps +-i, which
    # the sign iteration maps along the imaginary axis without converging.
    a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -3.0]])
    with pytest.raises(CareError, match="did not converge"):
        solve_care(a, [[0.0], [0.0], [1.0]], np.diag([0.0, 0.0, 1.0]), [[1.0]])


def test_lqri_system_matches_kleinman_newton():
    a, b = linearized_system()
    q, r = LqriGains().weight_matrices()
    p = solve_care(a, b, q, r)
    p_kn = kleinman_newton(a, b, q, r)
    assert np.linalg.norm(p - p_kn) / np.linalg.norm(p_kn) < 1e-8
    assert care_residual(a, b, q, r, p) <= 1e-12


def test_non_stabilizing_solution_is_rejected():
    # An unstable mode that neither B moves nor Q weighs: P = 0 solves the
    # CARE (zero residual) but leaves A - S P unstable.
    with pytest.raises(CareError, match="does not stabilize"):
        solve_care([[1.0]], [[0.0]], [[0.0]], [[1.0]])
    with pytest.raises(CareError, match="does not stabilize"):
        solve_care(np.diag([1.0, -1.0]), [[0.0], [1.0]], np.diag([0.0, 1.0]), [[1.0]])


def _random_care_draws(count):
    """Random systems: n in [1, 8], m in [1, n], A = N(0, 1) U(0.1, 10),
    Q = H H' + 0.1 I, R = diag U(0.5, 2), all from default_rng(0)."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, n + 1))
        a = rng.normal(size=(n, n)) * rng.uniform(0.1, 10.0)
        b = rng.normal(size=(n, m))
        h = rng.normal(size=(n, n))
        yield a, b, h @ h.T + 0.1 * np.eye(n), np.diag(rng.uniform(0.5, 2.0, m))


@pytest.mark.parametrize("draw", [23, 157])
def test_ill_conditioned_single_input_systems_refine_to_the_residual_bound(draw):
    # The sign-function P of these draws (|P| ~ 7e4) misses the 1e-8 residual
    # (8.0e-7 and 2.7e-8); Newton refinement reaches it and Kleinman-Newton's P.
    a, b, q, r = list(_random_care_draws(draw + 1))[draw]
    assert b.shape[1] == 1 and a.shape[0] == (3 if draw == 23 else 6)
    p = solve_care(a, b, q, r)
    assert care_residual(a, b, q, r, p) <= 1e-8
    p_kn = kleinman_newton(a, b, q, r)
    assert np.linalg.norm(p - p_kn) / np.linalg.norm(p_kn) < 1e-8
    assert np.linalg.eigvals(a - b @ lqr_gain(p, b, r)).real.max() < 0.0
