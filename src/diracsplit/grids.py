"""Uniform periodic grids and Fourier pseudospectral helpers.

Transforms use the unnormalized-forward / 1/M-inverse convention of
``scipy.fft``.  Mode l on an axis (a, b, M) carries wavenumber
2*pi*l/(b - a) with l running over {-M/2, ..., M/2 - 1}, stored in FFT
order (0 .. M/2-1, -M/2 .. -1).  The worker count for the transforms
can be overridden with the DIRACSPLIT_THREADS environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft


def _workers():
    raw = os.environ.get("DIRACSPLIT_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"DIRACSPLIT_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"DIRACSPLIT_THREADS must be positive, got {n}")
    return n


@dataclass(frozen=True)
class PeriodicGrid:
    """Tensor product of uniform periodic axes.

    Each axis is (a, b, M): M points x_j = a + j*(b - a)/M for
    j = 0 .. M-1, the right endpoint identified with the left.
    """

    lower: tuple
    upper: tuple
    points: tuple

    def __post_init__(self):
        if not (len(self.lower) == len(self.upper) == len(self.points)):
            raise ValueError("lower, upper and points must have equal length")
        if not 1 <= len(self.points) <= 3:
            raise ValueError(f"grid dimension must be 1..3, got {len(self.points)}")
        for a, b, m in zip(self.lower, self.upper, self.points):
            if not (np.isfinite([a, b]).all() and b > a):
                raise ValueError(f"axis needs finite b > a, got ({a}, {b})")
            if m < 4 or m % 2 != 0:
                raise ValueError(f"points per axis must be even and >= 4, got {m}")

    @classmethod
    def line(cls, a, b, m):
        return cls((float(a),), (float(b),), (int(m),))

    @classmethod
    def box(cls, axes):
        """Build from a sequence of (a, b, M) triples."""
        a, b, m = zip(*axes)
        return cls(tuple(float(v) for v in a), tuple(float(v) for v in b),
                   tuple(int(v) for v in m))

    @property
    def ndim(self):
        return len(self.points)

    @property
    def shape(self):
        return self.points

    @property
    def spacing(self):
        return tuple((b - a) / m for a, b, m in zip(self.lower, self.upper, self.points))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def axis_points(self, axis):
        a, b, m = self.lower[axis], self.upper[axis], self.points[axis]
        return a + (b - a) / m * np.arange(m)

    def meshgrid(self):
        """Broadcastable coordinate arrays, one per axis."""
        return np.meshgrid(*(self.axis_points(k) for k in range(self.ndim)),
                           indexing="ij", sparse=True)

    def fourier_modes(self, axis):
        """Wavenumbers 2*pi*l/(b-a) in FFT storage order."""
        a, b, m = self.lower[axis], self.upper[axis], self.points[axis]
        return 2.0 * np.pi * np.fft.fftfreq(m, d=1.0 / m) / (b - a)


@lru_cache(maxsize=64)
def mode_mesh(grid):
    """Broadcastable wavenumber arrays, one per axis (read-only, cached)."""
    mus = np.meshgrid(*(grid.fourier_modes(k) for k in range(grid.ndim)),
                      indexing="ij", sparse=True)
    for mu in mus:
        mu.flags.writeable = False
    return tuple(mus)


def to_modes(data, grid):
    """Forward FFT over the spatial axes (trailing axes pass through)."""
    return scipy.fft.fftn(data, axes=tuple(range(grid.ndim)), workers=_workers())


def from_modes(coef, grid):
    """Inverse FFT over the spatial axes."""
    return scipy.fft.ifftn(coef, axes=tuple(range(grid.ndim)), workers=_workers())


def spectral_derivative(data, grid, axis):
    """Periodic d/dx_axis of samples on the grid (exact on resolved modes)."""
    if not 0 <= axis < grid.ndim:
        raise ValueError(f"axis {axis} out of range for a {grid.ndim}d grid")
    coef = scipy.fft.fft(data, axis=axis, workers=_workers())
    mu = grid.fourier_modes(axis)
    mu = mu.reshape(mu.shape + (1,) * (data.ndim - 1 - axis))
    return scipy.fft.ifft(1j * mu * coef, axis=axis, workers=_workers())
