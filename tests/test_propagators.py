"""Split-factor flows against dense exponentials and operator brute force.

The kinetic and potential steps are checked pointwise (per Fourier mode,
per grid point) against scaling-and-squaring matrix exponentials of the
corresponding generator.  The closed-form double commutator is checked
against a literal evaluation of 2 W T W f - W W T f - T W W f for every
supported dimension/component pairing and for relativistic constants.
"""

import numpy as np
import pytest

from diracsplit.algebra import dirac_matrix, exp_dense, pauli
from diracsplit.fields import SpinorField, mass
from diracsplit.grids import PeriodicGrid, from_modes, to_modes
from diracsplit.potentials import (
    CustomPotential,
    Honeycomb2D,
    KleinStep,
    TimeDependent1D,
    ZeroPotential,
)
from diracsplit.propagators import (
    UnsupportedCommutatorTransport,
    _kinetic_entries,
    commutator_bruteforce,
    commutator_coefficients,
    compact_potential_step,
    kinetic_step,
    potential_step,
)


def _spin_set(ncomp):
    if ncomp == 2:
        return [pauli(j) for j in (1, 2, 3)], pauli(3)
    return [dirac_matrix(f"alpha{j}") for j in (1, 2, 3)], dirac_matrix("beta")


def _random_field(grid, ncomp, rng, max_mode=None):
    coef = (rng.standard_normal(grid.shape + (ncomp,))
            + 1j * rng.standard_normal(grid.shape + (ncomp,)))
    if max_mode is not None:
        for ax, m in enumerate(grid.shape):
            if m > 2 * max_mode:
                idx = [slice(None)] * (grid.ndim + 1)
                idx[ax] = slice(max_mode + 1, m - max_mode)
                coef[tuple(idx)] = 0.0
    return SpinorField(grid, from_modes(coef, grid))


def _rel_err(got, want):
    num = np.linalg.norm((got.data - want.data).ravel())
    den = np.linalg.norm(want.data.ravel())
    return num / den


# --- kinetic flow ----------------------------------------------------------

_KINETIC_CASES = [
    (2, [(-3.0, 5.0, 16)], 1.0, 1.0, 0.5),
    (2, [(-3.0, 5.0, 16)], 1.0, 1.0, -0.125),
    (4, [(-3.0, 5.0, 16)], 1.0, 1.0, 0.5),
    (2, [(-2.0, 2.0, 8), (-4.0, 4.0, 8)], 1.0, 1.0, 0.3),
    (4, [(-2.0, 2.0, 8), (-4.0, 4.0, 8)], 2.0, 0.5, 0.3),
    (4, [(-1.0, 1.0, 6), (-2.0, 2.0, 6), (0.0, 3.0, 6)], 1.0, 1.0, 0.2),
    (2, [(-20.0, 20.0, 16)], 137.0359895, 1.0, 2.0e-5),
    # massless: mode 0 has r = 0 and takes the sinc series branch
    (2, [(-3.0, 5.0, 16)], 1.0, 0.0, 0.5),
    (4, [(-2.0, 2.0, 8), (-4.0, 4.0, 8)], 1.0, 0.0, 0.3),
]


@pytest.mark.parametrize("ncomp,axes,c,m,s", _KINETIC_CASES)
def test_kinetic_matches_dense_exponential_per_mode(ncomp, axes, c, m, s):
    grid = PeriodicGrid.box(axes)
    rng = np.random.default_rng(5 + len(axes))
    f = _random_field(grid, ncomp, rng)
    got = kinetic_step(f, s, c=c, m=m)

    spins, bmat = _spin_set(ncomp)
    modes = [grid.fourier_modes(ax) for ax in range(grid.ndim)]
    coef = to_modes(f.data, grid)
    out = np.empty_like(coef)
    for idx in np.ndindex(grid.shape):
        gamma = m * c * c * bmat.astype(np.complex128)
        for ax in range(grid.ndim):
            gamma = gamma + c * modes[ax][idx[ax]] * spins[ax]
        out[idx] = exp_dense(-1j * gamma, s) @ coef[idx]
    want = from_modes(out, grid)
    assert np.max(np.abs(got.data - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_kinetic_plane_wave_eigenphase():
    # exp(s T) multiplies an eigen-spinor of the mode symbol by a phase
    grid = PeriodicGrid.line(-np.pi, np.pi, 32)
    c, m, s = 1.0, 1.0, 0.7
    mu = grid.fourier_modes(0)[3]
    gamma = c * mu * pauli(1) + m * c * c * pauli(3)
    evals, evecs = np.linalg.eigh(gamma)
    x = grid.axis_points(0)
    wave = np.exp(1j * mu * x)
    for k in range(2):
        data = wave[:, None] * evecs[:, k][None, :]
        stepped = kinetic_step(SpinorField(grid, data), s, c=c, m=m)
        want = np.exp(-1j * s * evals[k]) * data
        assert np.max(np.abs(stepped.data - want)) <= 1e-13
    # eigenvalues are +- sqrt(m^2 c^4 + c^2 mu^2)
    assert evals[1] == pytest.approx(np.sqrt(m**2 * c**4 + c**2 * mu**2), rel=1e-14)


def test_kinetic_composes_and_conserves_mass():
    grid = PeriodicGrid.box([(-2.0, 2.0, 12), (-2.0, 2.0, 12)])
    rng = np.random.default_rng(9)
    f = _random_field(grid, 4, rng)
    m0 = mass(f)
    two = kinetic_step(kinetic_step(f, 0.3), 0.45)
    one = kinetic_step(f, 0.75)
    assert np.max(np.abs(two.data - one.data)) <= 1e-13 * np.max(np.abs(one.data))
    assert mass(one) == pytest.approx(m0, rel=1e-13)
    back = kinetic_step(one, -0.75)
    assert np.max(np.abs(back.data - f.data)) <= 1e-12


def test_kinetic_entries_cached_and_read_only():
    grid = PeriodicGrid.line(-1.0, 1.0, 8)
    e1 = _kinetic_entries(grid, 2, 1.0, 1.0, 0.25)
    e2 = _kinetic_entries(grid, 2, 1.0, 1.0, 0.25)
    assert all(a is b for a, b in zip(e1, e2))
    with pytest.raises(ValueError):
        e1[0][0] = 0.0


# --- potential flow --------------------------------------------------------

def _dense_potential_apply(field, t, s, model):
    grid = field.grid
    d, n = grid.ndim, field.ncomp
    xs = grid.meshgrid()
    v = np.broadcast_to(np.asarray(model.scalar(t, xs), dtype=np.float64), grid.shape)
    a = [np.broadcast_to(np.asarray(ak, dtype=np.float64), grid.shape)
         for ak in model.magnetic(t, xs)]
    spins, _ = _spin_set(n)
    eye = np.eye(n, dtype=np.complex128)
    out = np.empty_like(field.data)
    for idx in np.ndindex(grid.shape):
        w = v[idx] * eye
        for k in range(d):
            w = w - a[k][idx] * spins[k]
        out[idx] = exp_dense(-1j * model.e * w, s) @ field.data[idx]
    return out


_POTENTIAL_CASES = [
    (TimeDependent1D(), 1, 2, 0.8, 0.5),
    (TimeDependent1D(), 1, 4, 0.8, -0.25),
    (TimeDependent1D(e=0.7), 1, 2, 1.3, 0.5),
    (KleinStep(V0=5.0, L=0.5), 1, 2, 0.0, 0.4),
    (KleinStep(V0=5.0, L=0.5), 1, 4, 0.0, 0.4),
    (Honeycomb2D(case=2), 2, 2, 0.3, 0.25),
    (Honeycomb2D(case=2), 2, 4, 0.3, 0.25),
    (CustomPotential(v_expr="sin(x)*y/3",
                     a_exprs=("tanh(x) + y/5", "cos(x*y/4)")), 2, 4, 0.6, 0.3),
    (CustomPotential(v_expr="sin(x)*y/3",
                     a_exprs=("tanh(x) + y/5", "cos(x*y/4)")), 2, 2, 0.6, 0.3),
    (ZeroPotential(), 1, 2, 0.0, 1.0),
    (CustomPotential(v_expr="sin(x)*y/3 + z/4",
                     a_exprs=("tanh(x) + z/5", "cos(x*y/4)", "sin(y + z)/2")),
     3, 4, 0.6, 0.3),
]


@pytest.mark.parametrize("model,d,ncomp,t,s", _POTENTIAL_CASES)
def test_potential_matches_dense_exponential_pointwise(model, d, ncomp, t, s):
    axes = [(-3.0, 3.0, 12)] * d
    grid = PeriodicGrid.box(axes)
    rng = np.random.default_rng(31 + d + ncomp)
    f = _random_field(grid, ncomp, rng)
    got = potential_step(f, t, s, model)
    want = _dense_potential_apply(f, t, s, model)
    assert np.max(np.abs(got.data - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert mass(got) == pytest.approx(mass(f), rel=1e-13)


def test_compact_step_matches_dense_exponential():
    # exp(s (W + tau^2/48 [W,[T,W]])) with s deliberately not equal to tau
    grid = PeriodicGrid.line(-4.0, 4.0, 24)
    t, s, tau = 0.8, 0.4, 0.6
    for model in (TimeDependent1D(), TimeDependent1D(c=137.0359895, e=0.9)):
        for ncomp in (2, 4):
            co = commutator_coefficients(model, t, grid, ncomp)
            rng = np.random.default_rng(77 + ncomp)
            f = _random_field(grid, ncomp, rng)
            got = compact_potential_step(f, t, s, tau, model)

            xs = grid.meshgrid()
            v = np.asarray(model.scalar(t, xs), dtype=np.float64)
            a1 = np.asarray(model.magnetic(t, xs)[0], dtype=np.float64)
            spins, _ = _spin_set(ncomp)
            eye = np.eye(ncomp, dtype=np.complex128)
            out = np.empty_like(f.data)
            for idx in np.ndindex(grid.shape):
                w = -1j * model.e * (v[idx] * eye - a1[idx] * spins[0])
                gen = w + (tau * tau / 48.0) * co.order0[idx]
                out[idx] = exp_dense(gen, s) @ f.data[idx]
            assert np.max(np.abs(got.data - out)) <= 1e-12 * max(1.0, np.max(np.abs(out)))


def test_compact_step_reduces_to_potential_step_without_magnetic():
    grid = PeriodicGrid.line(-2.0, 2.0, 16)
    model = KleinStep(V0=3.0, L=0.5)
    rng = np.random.default_rng(3)
    f = _random_field(grid, 2, rng)
    a = compact_potential_step(f, 0.0, 0.3, 0.3, model)
    b = potential_step(f, 0.0, 0.3, model)
    assert np.array_equal(a.data, b.data)


def test_compact_step_rejects_magnetic_in_higher_dimensions():
    grid = PeriodicGrid.box([(-2.0, 2.0, 8), (-2.0, 2.0, 8)])
    model = CustomPotential(v_expr="0", a_exprs=("y", "x"))
    f = SpinorField.zeros(grid, 2)
    with pytest.raises(UnsupportedCommutatorTransport):
        compact_potential_step(f, 0.0, 0.1, 0.1, model)
    assert issubclass(UnsupportedCommutatorTransport, NotImplementedError)


def test_static_potential_phase_is_cached():
    grid = PeriodicGrid.line(-2.0, 2.0, 16)
    f = SpinorField.from_components(grid, (1.0, 0.0))
    for model in (KleinStep(V0=3.0, L=0.5),
                  CustomPotential(v_expr="sin(x)", a_exprs=("tanh(x)",))):
        a = potential_step(f, 0.0, 0.25, model)
        b = potential_step(f, 5.0, 0.25, model)  # static: t is irrelevant
        assert np.array_equal(a.data, b.data)


# --- double commutator ------------------------------------------------------

def _commutator_setup(d, **consts):
    if d == 1:
        grid = PeriodicGrid.line(-4.0, 4.0, 32)
        model = TimeDependent1D(**consts)
    elif d == 2:
        grid = PeriodicGrid.box([(-3.0, 3.0, 16), (-4.0, 4.0, 16)])
        model = CustomPotential(v_expr="sin(x)*cos(y) + x/9",
                                a_exprs=("tanh(x)*cos(y)", "sin(x + y/2)"),
                                **consts)
    else:
        grid = PeriodicGrid.box([(-2.0, 2.0, 8)] * 3)
        model = CustomPotential(v_expr="sin(x) + y*z/6",
                                a_exprs=("tanh(y) + z^2/40", "x*z/5",
                                         "cos(x) + y^2/30"),
                                **consts)
    return grid, model


_COMMUTATOR_CASES = [(1, 2), (1, 4), (2, 2), (2, 4), (3, 4)]


@pytest.mark.parametrize("d,ncomp", _COMMUTATOR_CASES)
def test_commutator_closed_form_matches_bruteforce(d, ncomp):
    grid, model = _commutator_setup(d)
    t = 0.7
    co = commutator_coefficients(model, t, grid, ncomp)
    rng = np.random.default_rng(100 + 10 * d + ncomp)
    for _ in range(50):
        f = _random_field(grid, ncomp, rng)
        want = commutator_bruteforce(f, t, model)
        got = co.apply(f)
        assert _rel_err(got, want) <= 1e-9


@pytest.mark.parametrize("consts", [
    {"c": 137.0359895, "m": 1.0, "e": 1.0},
    {"c": 2.0, "m": 1.5, "e": 0.7},
])
@pytest.mark.parametrize("d,ncomp", _COMMUTATOR_CASES)
def test_commutator_cross_check_with_constants(consts, d, ncomp):
    grid, model = _commutator_setup(d, **consts)
    t = 0.4
    co = commutator_coefficients(model, t, grid, ncomp)
    rng = np.random.default_rng(200 + 10 * d + ncomp)
    for _ in range(5):
        f = _random_field(grid, ncomp, rng)
        want = commutator_bruteforce(f, t, model)
        got = co.apply(f)
        assert _rel_err(got, want) <= 1e-9


def test_commutator_vanishes_without_magnetic_potential():
    cases = [
        (PeriodicGrid.line(-4.0, 4.0, 32), KleinStep(V0=4.0, L=0.5), 2),
        (PeriodicGrid.box([(-2.0, 2.0, 12)] * 2), Honeycomb2D(case=2), 4),
    ]
    rng = np.random.default_rng(11)
    for grid, model, ncomp in cases:
        co = commutator_coefficients(model, 0.4, grid, ncomp)
        assert np.all(co.order0 == 0.0)
        f = _random_field(grid, ncomp, rng)
        want = commutator_bruteforce(f, 0.4, model)
        # brute force cancels three O(V^2 |T f|) terms down to roundoff
        scale = np.linalg.norm(f.data.ravel()) * 1e3
        assert np.linalg.norm(want.data.ravel()) <= 1e-9 * scale
        got = co.apply(f)
        assert np.all(got.data == 0.0)


def test_commutator_rejects_two_components_in_three_dimensions():
    grid = PeriodicGrid.box([(-2.0, 2.0, 8)] * 3)
    model = ZeroPotential()
    with pytest.raises(ValueError):
        commutator_coefficients(model, 0.0, grid, ncomp=2)
