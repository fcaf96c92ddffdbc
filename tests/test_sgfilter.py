import numpy as np
import pytest

from tiltmav.sgfilter import SavitzkyGolay, sg_coefficients

from oracles import SavitzkyGolayRoll


def test_constant_signal_identity():
    f = SavitzkyGolay(window=21, order=1, dim=1)
    for _ in range(30):
        f.push([3.7])
        assert np.isclose(f.value()[0], 3.7)


def test_linear_ramp_exact():
    f = SavitzkyGolay(window=21, order=1, dim=1)
    dt = 0.01
    slope = 2.5
    for k in range(50):
        f.push([slope * k * dt])
        if f.primed:
            assert np.isclose(f.value()[0], slope * k * dt, atol=1e-10)
            assert np.isclose(f.derivative(dt)[0], slope, atol=1e-8)


def test_noise_variance_reduction_matches_coefficients():
    window = 21
    value_w, _ = sg_coefficients(window, order=1)
    gain = (value_w**2).sum()
    rng = np.random.default_rng(41)
    noise = rng.normal(0.0, 1.0, 100_000)
    f = SavitzkyGolay(window=window, order=1, dim=1)
    out = []
    for x in noise:
        f.push([x])
        if f.primed:
            out.append(f.value()[0])
    ratio = np.var(out) / np.var(noise)
    assert abs(ratio - gain) / gain < 0.10


def test_short_buffer_passthrough():
    f = SavitzkyGolay(window=5, order=1, dim=2)
    f.push([1.0, 2.0])
    assert not f.primed
    assert np.allclose(f.value(), [1.0, 2.0])
    assert np.allclose(f.derivative(0.01), 0.0)


def test_window_validation():
    with pytest.raises(ValueError):
        sg_coefficients(20, 1)
    with pytest.raises(ValueError):
        sg_coefficients(5, 7)


def test_coefficients_sum():
    value_w, deriv_w = sg_coefficients(21, 1)
    assert np.isclose(value_w.sum(), 1.0)
    assert np.isclose(deriv_w.sum(), 0.0)
    # derivative weights recover a unit slope: sum(w_i * x_i) = 1
    x = np.arange(21.0) - 20.0
    assert np.isclose(deriv_w @ x, 1.0)


@pytest.mark.parametrize("window, order, dim", [(21, 1, 3), (5, 1, 2), (3, 0, 1), (7, 2, 4)])
def test_doubled_buffer_equals_the_rolled_buffer_byte_for_byte(window, order, dim):
    # Before priming and over several wraps of the buffer, the contiguous
    # window multiplies the same rows in the same order as the rolled one.
    rng = np.random.default_rng(window + dim)
    f, oracle = SavitzkyGolay(window, order, dim), SavitzkyGolayRoll(window, order, dim)
    assert f.value().tobytes() == oracle.value().tobytes()
    for k in range(5 * window + 2):
        sample = rng.normal(0.0, 10.0 ** rng.uniform(-3.0, 3.0), dim)
        f.push(sample if k % 2 else sample.tolist())
        oracle.push(sample)
        assert f.primed == (k + 1 >= window)
        assert f.value().tobytes() == oracle.value().tobytes()
        assert f.derivative(0.01).tobytes() == oracle.derivative(0.01).tobytes()
