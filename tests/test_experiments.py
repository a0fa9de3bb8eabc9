"""Tests for the experiment drivers.

The analytic transmission coefficient at the standard parameter point
(k0 = 106, V0 = 6.13e4, L = 1e-4, atomic units) is frozen as a
regression constant; it was computed once from the closed form and is
cross-checked structurally against the sharp-step limit below.
"""

import dataclasses
import json

import numpy as np
import pytest

from diracsplit import (PeriodicGrid, SpinorField, error_norms, evolve,
                        builtin_plan, mass)
from diracsplit.experiments import (SPEED_OF_LIGHT, ConvergenceSetup,
                                    asymptotic_rate, convergence_study,
                                    gaussian_pair, honeycomb_dynamics,
                                    klein_initial, klein_report, klein_run,
                                    klein_transmission_analytic,
                                    reference_solution, setup_honeycomb,
                                    setup_line_rational, transmitted_fraction)
from diracsplit.potentials import KleinStep

T_ANA_GOLDEN = 0.5500452752120402  # k0=106, V0=6.13e4, L=1e-4


# --- analytic transmission --------------------------------------------------

def test_transmission_golden_value():
    t, regime = klein_transmission_analytic(106.0, 6.13e4, 1e-4)
    assert regime
    assert t == pytest.approx(T_ANA_GOLDEN, rel=1e-13)


def test_transmission_matches_sharp_step_limit():
    # sinh(x) ~ x collapses the closed form to -4 k k' / ((V0/c)^2 - (k+k')^2)
    c, m, k0, v0 = SPEED_OF_LIGHT, 1.0, 106.0, 6.13e4
    mc2 = m * c * c
    e_k = np.sqrt(k0 * k0 * c * c + mc2 * mc2)
    k = np.sqrt((e_k - v0) ** 2 - mc2 * mc2) / c
    kp = -k0
    hard = -4.0 * k * kp / ((v0 / c) ** 2 - (k + kp) ** 2)
    t, _ = klein_transmission_analytic(k0, v0, 1e-9)
    assert t == pytest.approx(hard, rel=1e-10)


def test_transmission_below_threshold():
    # V0 = 2e4 < E_k + mc^2 ~ 4.25e4: no propagating transmitted branch
    t, regime = klein_transmission_analytic(106.0, 2.0e4, 1e-4)
    assert t == 0.0
    assert not regime


def test_transmission_vanishes_at_threshold():
    c, m, k0 = SPEED_OF_LIGHT, 1.0, 106.0
    mc2 = m * c * c
    e_k = np.sqrt(k0 * k0 * c * c + mc2 * mc2)
    t, regime = klein_transmission_analytic(k0, float(e_k + mc2) + 1.0, 1e-4)
    assert regime
    assert 0.0 < t < 5e-2


def test_reflected_momentum_identity():
    # k' = -sqrt(E_k^2 - m^2 c^4)/c reduces to -k0 identically
    c, m, k0 = SPEED_OF_LIGHT, 1.0, 106.0
    mc2 = m * c * c
    e_k = np.sqrt(k0 * k0 * c * c + mc2 * mc2)
    assert -np.sqrt(e_k * e_k - mc2 * mc2) / c == pytest.approx(-k0, rel=1e-12)


# --- initial packet and transmitted fraction --------------------------------

def test_klein_initial_components():
    grid = PeriodicGrid.line(-20.0, 20.0, 640)
    f = klein_initial(grid, k0=106.0, x0=-10.0)
    x = grid.axis_points(0)
    i0 = int(np.argmin(np.abs(x + 10.0)))
    assert abs(f.data[i0, 0]) == pytest.approx(1.0, abs=1e-12)
    c, m = SPEED_OF_LIGHT, 1.0
    ratio = c * 106.0 / (m * c * c + np.sqrt(m * m * c**4 + c * c * 106.0**2))
    np.testing.assert_allclose(f.data[..., 1], ratio * f.data[..., 0],
                               rtol=1e-12, atol=1e-300)
    assert mass(f) > 0.0


def test_klein_initial_at_rest():
    grid = PeriodicGrid.line(-20.0, 20.0, 128)
    f = klein_initial(grid, k0=0.0)
    assert np.all(f.data[..., 1] == 0.0)


def test_klein_initial_rejects_non_finite():
    grid = PeriodicGrid.line(-20.0, 20.0, 128)
    for k0, x0 in ((np.nan, -10.0), (np.inf, -10.0), (106.0, np.nan),
                   (106.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            klein_initial(grid, k0, x0)


def test_transmitted_fraction_uniform():
    grid = PeriodicGrid.line(-2.0, 2.0, 8)
    f = SpinorField.from_components(grid, (np.ones(8), np.zeros(8)))
    assert transmitted_fraction(f) == pytest.approx(0.5)


def test_transmitted_fraction_weighted():
    grid = PeriodicGrid.line(-2.0, 2.0, 8)
    up = np.where(grid.axis_points(0) >= 0.0, 2.0, 1.0)
    f = SpinorField.from_components(grid, (up, np.zeros(8)))
    # |2|^2 on four points vs |1|^2 on four points
    assert transmitted_fraction(f) == pytest.approx(16.0 / 20.0)


# --- dynamic Klein runs (smoke scale) ----------------------------------------

def test_klein_run_smoke():
    rep = klein_run(h=1.0 / 128.0, tau=1e-4)
    assert rep.klein_regime
    assert rep.T_ana == pytest.approx(T_ANA_GOLDEN, rel=1e-13)
    assert rep.kprime == pytest.approx(-106.0, rel=1e-12)
    # coarse in time: only a loose sanity corridor
    assert 0.15 < rep.T_num < 0.85
    assert rep.relative_error == abs(rep.T_num - rep.T_ana) / rep.T_ana


def test_klein_run_below_threshold_smoke():
    rep = klein_run(V0=2.0e4, h=1.0 / 128.0, tau=1e-4)
    assert not rep.klein_regime
    assert rep.T_ana == 0.0
    assert rep.relative_error is None
    assert rep.T_num < 1e-3


def test_klein_report_serializes():
    rep = klein_run(V0=2.0e4, h=1.0 / 64.0, tau=5e-4, t_max=0.05)
    payload = json.loads(json.dumps(dataclasses.asdict(rep)))
    assert payload["relative_error"] is None
    assert payload["V0"] == 2.0e4


def test_klein_run_rejects_bad_mesh():
    with pytest.raises(ValueError):
        klein_run(h=0.3, tau=1e-3, t_max=0.01)


def test_klein_report_step_height_carries_charge():
    # e = 2 halves V0 for the same step e V0 = 6.13e4 as the golden value
    grid = PeriodicGrid.line(-20.0, 20.0, 64)
    model = KleinStep(V0=3.065e4, L=1e-4, c=SPEED_OF_LIGHT, e=2.0)
    rep = klein_report(klein_initial(grid, 106.0), model, 106.0, -10.0)
    assert rep.klein_regime
    assert rep.T_ana == pytest.approx(T_ANA_GOLDEN, rel=1e-13)
    assert rep.V0 == 3.065e4


# --- convergence studies ------------------------------------------------------

def _mini_setup():
    return setup_line_rational(domain=(-8.0, 8.0), h=0.25, t_max=0.5)


def test_convergence_study_rates():
    reps = convergence_study(_mini_setup(), ["s2", "s4c"],
                             [1 / 8, 1 / 16, 1 / 32], tau_ref=1 / 512)
    by_name = {r.scheme: r for r in reps}
    assert set(by_name) == {"s2", "s4c"}
    for r in reps:
        assert len(r.taus) == len(r.e_phi) == len(r.e_rho) == len(r.e_j) == 3
        assert len(r.rates_phi) == 2
        assert all(a > b for a, b in zip(r.e_phi, r.e_phi[1:]))
        assert all(s >= 0.0 for s in r.seconds)
    assert all(1.8 < v < 2.2 for v in by_name["s2"].rates_phi)
    assert all(3.5 < v < 4.5 for v in by_name["s4c"].rates_phi)


def test_convergence_reference_short_circuit():
    setup = _mini_setup()
    ref = reference_solution(setup, 1 / 256)
    a = convergence_study(setup, ["s2"], [1 / 8], reference=ref)
    b = convergence_study(setup, ["s2"], [1 / 8], tau_ref=1 / 256)
    assert a[0].e_phi == b[0].e_phi


def test_convergence_identical_run_is_exact():
    setup = _mini_setup()
    reps = convergence_study(setup, ["s4c"], [1 / 64], tau_ref=1 / 64)
    assert reps[0].e_phi == (0.0,)
    assert reps[0].e_rho == (0.0,)
    assert reps[0].e_j == (0.0,)


def test_convergence_accepts_plan_objects():
    plan = builtin_plan("s2")
    reps = convergence_study(_mini_setup(), [plan], [1 / 8], tau_ref=1 / 128)
    assert reps[0].scheme == "s2"


def test_convergence_requires_reference():
    with pytest.raises(ValueError):
        convergence_study(_mini_setup(), ["s2"], [1 / 8])


def test_asymptotic_rate():
    assert asymptotic_rate((16.0, 4.0, 1.0)) == pytest.approx(2.0)
    assert asymptotic_rate((9.9, 16.0, 4.0, 1.0)) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        asymptotic_rate((4.0, 1.0))


def test_setup_builders():
    s1 = setup_line_rational()
    assert s1.grid.shape == (1024,)
    assert s1.t_max == 2.0
    s2 = setup_honeycomb(2)
    assert s2.grid.shape == (128, 128)
    assert s2.model.case == 2
    with pytest.raises(ValueError):
        setup_honeycomb(1, h=0.31)
    f = gaussian_pair(s1.grid)
    x = s1.grid.axis_points(0)
    i1 = int(np.argmin(np.abs(x - 1.0)))
    assert abs(f.data[i1, 1]) == pytest.approx(1.0, abs=1e-12)


# --- honeycomb dynamics -------------------------------------------------------

def _hex_grid():
    return PeriodicGrid.box([(-8.0, 8.0, 64), (-8.0, 8.0, 64)])


def test_honeycomb_initial_peaks():
    snaps = honeycomb_dynamics(1, _hex_grid(), 1 / 32, [0.0])
    assert len(snaps) == 1 and snaps[0].t == 0.0
    grid = snaps[0].field.grid
    x, y = grid.meshgrid()
    i = np.unravel_index(np.argmax(snaps[0].rho1), grid.shape)
    assert (float(x[i[0], 0]), float(y[0, i[1]])) == (0.0, 0.0)
    j = np.unravel_index(np.argmax(snaps[0].rho2), grid.shape)
    assert (float(x[j[0], 0]), float(y[0, j[1]])) == (1.0, 0.0)
    assert snaps[0].rho1.max() == pytest.approx(1.0)
    assert np.allclose(snaps[0].total, snaps[0].rho1 + snaps[0].rho2)


def test_honeycomb_mass_and_snapshot_times():
    snaps = honeycomb_dynamics(1, _hex_grid(), 1 / 32, [0.0, 0.125, 0.25])
    assert [s.t for s in snaps] == [0.0, 0.125, 0.25]
    m0 = snaps[0].mass
    for s in snaps[1:]:
        assert abs(s.mass / m0 - 1.0) < 1e-12


def test_honeycomb_case_rotation_matters():
    grid = _hex_grid()
    a = honeycomb_dynamics(1, grid, 1 / 32, [0.25])
    b = honeycomb_dynamics(2, grid, 1 / 32, [0.25])
    assert error_norms(a[0].field, b[0].field).e_phi > 1e-2


def test_honeycomb_rejects_off_lattice_times():
    with pytest.raises(ValueError):
        honeycomb_dynamics(1, _hex_grid(), 1 / 32, [0.013])
    with pytest.raises(ValueError):
        honeycomb_dynamics(1, _hex_grid(), 1 / 32, [-0.25])


def test_honeycomb_matches_plain_evolution():
    grid = _hex_grid()
    snaps = honeycomb_dynamics(3, grid, 1 / 16, [0.5])
    from diracsplit.potentials import Honeycomb2D
    ref = evolve(gaussian_pair(grid), 0.0, 0.5, 1 / 16,
                 builtin_plan("s4c"), Honeycomb2D(case=3))
    np.testing.assert_array_equal(snaps[0].field.data, ref.data)
