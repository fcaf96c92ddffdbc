"""Causal Savitzky-Golay smoothing and derivative estimation.

A polynomial of the given order is least-squares fitted over the trailing
window and evaluated (value and first derivative) at the newest sample, so
the filter is usable in the control loop without future data.
"""

from __future__ import annotations

import numpy as np


def sg_coefficients(window: int, order: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """(value, derivative) convolution weights for the trailing window.

    Weights apply to samples ordered oldest to newest; the derivative is per
    sample step (divide by dt outside).
    """
    if window < 2 or window % 2 == 0:
        raise ValueError("window must be an odd integer >= 3")
    if order >= window:
        raise ValueError("order must be below the window length")
    x = np.arange(window, dtype=float) - (window - 1)   # newest sample at x = 0
    v = np.vander(x, order + 1, increasing=True)        # columns 1, x, x^2, ...
    # Least-squares fit y ~ V c evaluated at x = 0: value = c0, slope = c1.
    pinv = np.linalg.pinv(v)
    value_w = pinv[0]
    deriv_w = pinv[1] if order >= 1 else np.zeros(window)
    return value_w, deriv_w


class SavitzkyGolay:
    """Streaming filter; samples go in twice, so the trailing window is one buffer slice."""

    def __init__(self, window: int = 21, order: int = 1, dim: int = 3):
        self.window = window
        self.order = order
        self.value_w, self.deriv_w = sg_coefficients(window, order)
        self._buf = np.zeros((2 * window, dim))
        self._recent = self._buf[:window]
        self._count = 0

    @property
    def primed(self) -> bool:
        return self._count >= self.window

    def push(self, sample) -> None:
        k = self._count % self.window
        self._buf[k] = self._buf[k + self.window] = sample
        self._recent = self._buf[k + 1:k + 1 + self.window]
        self._count += 1

    def value(self):
        """Smoothed value at the newest sample; pass-through until primed."""
        if not self.primed:
            return self._recent[-1].copy()
        return self.value_w @ self._recent

    def derivative(self, dt: float):
        """Fit slope at the newest sample, per second; zero until primed."""
        if not self.primed:
            return np.zeros(self._buf.shape[1])
        return (self.deriv_w @ self._recent) / dt
