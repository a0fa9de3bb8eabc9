"""Periodic grid bookkeeping and Fourier pseudospectral identities."""

import numpy as np
import pytest

from diracsplit.grids import (
    PeriodicGrid,
    from_modes,
    mode_mesh,
    spectral_derivative,
    to_modes,
)


def test_mode_order_matches_fft_storage():
    grid = PeriodicGrid.line(0.0, 2.0 * np.pi, 4)
    assert np.allclose(grid.fourier_modes(0), [0.0, 1.0, -2.0, -1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGrid.line(0.0, 1.0, 5)  # odd
    with pytest.raises(ValueError):
        PeriodicGrid.line(0.0, 1.0, 2)  # too small
    with pytest.raises(ValueError):
        PeriodicGrid.line(1.0, 1.0, 8)  # empty interval
    with pytest.raises(ValueError):
        PeriodicGrid(lower=(0.0,), upper=(1.0, 2.0), points=(8, 8))
    for a, b in ((0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            PeriodicGrid.line(a, b, 8)


def test_spacing_and_points():
    grid = PeriodicGrid.line(-32.0, 32.0, 1024)
    assert grid.spacing == (1.0 / 16.0,)
    x = grid.axis_points(0)
    assert x[0] == -32.0
    assert np.allclose(np.diff(x), 1.0 / 16.0)
    assert x[-1] == 32.0 - 1.0 / 16.0  # right endpoint excluded


def test_spectral_derivative_exact_on_modes():
    grid = PeriodicGrid.line(-3.0, 5.0, 64)
    x = grid.axis_points(0)
    for ell in (0, 1, 5, -7):
        mu = 2.0 * np.pi * ell / 8.0
        f = np.exp(1j * mu * x)
        df = spectral_derivative(f, grid, 0)
        assert np.max(np.abs(df - 1j * mu * f)) <= 1e-12 * max(1.0, abs(mu))


def test_spectral_derivative_2d_axis():
    grid = PeriodicGrid.box([(-2.0, 2.0, 32), (0.0, 1.0, 16)])
    xs = grid.meshgrid()
    f = np.sin(2.0 * np.pi * xs[1]) * np.cos(np.pi * xs[0])
    df = spectral_derivative(f[..., np.newaxis], grid, 1)[..., 0]
    ref = 2.0 * np.pi * np.cos(2.0 * np.pi * xs[1]) * np.cos(np.pi * xs[0])
    assert np.max(np.abs(df - ref)) <= 1e-10


def test_transform_round_trip_and_parseval():
    rng = np.random.default_rng(5)
    grid = PeriodicGrid.box([(-1.0, 3.0, 16), (-2.0, 2.0, 8)])
    f = rng.standard_normal(grid.shape + (2,)) + 1j * rng.standard_normal(grid.shape + (2,))
    coef = to_modes(f, grid)
    back = from_modes(coef, grid)
    assert np.max(np.abs(back - f)) <= 1e-13
    # h^d sum |f|^2 == prod(h_k/M_k) sum |fhat|^2 for the unnormalized forward
    lhs = grid.cell_volume * np.sum(np.abs(f) ** 2)
    rhs = grid.cell_volume / np.prod(grid.shape) * np.sum(np.abs(coef) ** 2)
    assert abs(lhs - rhs) <= 1e-13 * lhs


def test_mode_mesh_cached_and_readonly():
    grid = PeriodicGrid.line(0.0, 1.0, 8)
    mus = mode_mesh(grid)
    assert mus is mode_mesh(PeriodicGrid.line(0.0, 1.0, 8))
    with pytest.raises(ValueError):
        mus[0][0] = 1.0
