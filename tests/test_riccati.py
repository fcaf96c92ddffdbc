import numpy as np
import pytest

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


def test_indefinite_r_rejected():
    with pytest.raises(CareError):
        solve_care([[0.0]], [[1.0]], [[1.0]], [[-1.0]])
