import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tiltmav.so3 import attitude_error, cross3, exp_so3, log_so3, rot_x, rot_z, vee

from oracles import is_rotation, random_rotation, skew


def test_skew_cross_product():
    assert np.allclose(skew([1, 0, 0]) @ [0, 1, 0], [0, 0, 1])
    rng = np.random.default_rng(0)
    for _ in range(50):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(skew(v) @ w, np.cross(v, w))


def test_vee_skew_roundtrip():
    assert np.array_equal(vee(skew([2, -3, 5])), [2.0, -3.0, 5.0])


def test_skew_zero():
    assert np.array_equal(skew([0, 0, 0]), np.zeros((3, 3)))


def test_vee_rejects_non_antisymmetric():
    with pytest.raises(ValueError):
        vee(np.eye(3))


def test_exp_log_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(100):
        phi = rng.normal(size=3)
        phi *= rng.uniform(0, 3.1) / np.linalg.norm(phi)
        r = exp_so3(phi)
        assert is_rotation(r)
        assert np.allclose(log_so3(r), phi, atol=1e-8)


_UNIT_AXES = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array).filter(
    lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
# Dense near pi, where arccos((tr R - 1) / 2) loses half the digits, and
# near 0, where the axis is ill-defined.
_ANGLES = st.one_of(
    st.floats(0.0, np.pi),
    st.floats(0.0, 1e-4),
    st.floats(np.pi - 1e-3, np.pi),
    st.tuples(st.floats(1.0, 10.0), st.integers(3, 15)).map(lambda t: np.pi - t[0] * 10.0**-t[1]),
)


@settings(max_examples=400, deadline=None)
@given(axis=_UNIT_AXES, angle=_ANGLES)
def test_exp_log_roundtrip_up_to_pi(axis, angle):
    r = exp_so3(angle * axis)
    assert np.abs(exp_so3(log_so3(r)) - r).max() < 1e-8


def test_exp_so3_rejects_non_finite():
    with pytest.raises(FloatingPointError):
        exp_so3([np.inf, 0.0, 0.0])


def test_attitude_error_zero_at_identity():
    r = random_rotation(np.random.default_rng(2))
    assert np.allclose(attitude_error(r, r), 0.0)


def test_attitude_error_rot_z():
    for phi in (0.3, np.pi / 2, 1.2):
        e = attitude_error(rot_z(phi), np.eye(3))
        assert np.allclose(e, [0, 0, np.sin(phi)], atol=1e-12)
    assert np.allclose(attitude_error(rot_z(np.pi / 2), np.eye(3)), [0, 0, 1])


def test_attitude_error_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        assert np.allclose(attitude_error(r1, r2), -attitude_error(r2, r1))


def test_attitude_error_zero_iff_equal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        r = random_rotation(rng)
        rd = random_rotation(rng, max_angle=0.99 * np.pi)
        err = attitude_error(r @ rd, r)
        angle = np.linalg.norm(log_so3(rd))
        if angle > 1e-6:
            assert np.linalg.norm(err) > 1e-8
    r = random_rotation(rng)
    assert np.allclose(attitude_error(r, r.copy()), 0.0, atol=1e-14)


def test_rot_x_matches_exp():
    assert np.allclose(rot_x(0.7), exp_so3([0.7, 0, 0]))


# Small values repeat often enough to give equal products, whose zero
# differences carry the sign np.cross gives them.
_COMPONENTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.5, 1.0, -1.0, 2.0]) | st.floats(
    min_value=-1e150, max_value=1e150, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(a=st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS),
       b=st.tuples(_COMPONENTS, _COMPONENTS, _COMPONENTS))
@example(a=(1.0, 1.0, 1.0), b=(1.0, 1.0, 1.0))
@example(a=(0.0, -0.0, 2.0), b=(-0.0, 0.0, 0.5))
def test_cross3_is_bit_equal_to_np_cross(a, b):
    # Bytes compare the signs of zeros too.
    assert np.array(cross3(a, b)).tobytes() == np.cross(a, b).tobytes()
