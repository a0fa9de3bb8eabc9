"""Splitting plans: structure, time offsets, conservation, empirical order."""

from fractions import Fraction

import numpy as np
import pytest

from diracsplit.fields import SpinorField, error_norms, mass
from diracsplit.grids import PeriodicGrid
from diracsplit.integrators import (
    COMPACT_POTENTIAL,
    KINETIC,
    POTENTIAL,
    Factor,
    SCHEMES,
    SplitStepPlan,
    builtin_plan,
    evolve,
    step,
    zeroed_offsets,
)
from diracsplit.potentials import KleinStep, TimeDependent1D, ZeroPotential
from diracsplit.propagators import kinetic_step


def test_scheme_registry():
    assert SCHEMES == ("s1", "s2", "s4", "s4rk", "s4c")
    with pytest.raises(ValueError):
        builtin_plan("s3")


@pytest.mark.parametrize("name,n_factors,order", [
    ("s1", 2, 1), ("s2", 3, 2), ("s4", 7, 4), ("s4rk", 13, 4), ("s4c", 5, 4),
])
def test_plan_shapes_and_coefficient_sums(name, n_factors, order):
    plan = builtin_plan(name)
    assert plan.name == name and plan.order == order
    assert len(plan.factors) == n_factors
    kin = sum(f.coefficient for f in plan.factors if f.kind == KINETIC)
    pot = sum(f.coefficient for f in plan.factors if f.kind != KINETIC)
    assert kin == Fraction(1)
    assert pot == Fraction(1)
    # palindromic coefficient lists for the symmetric schemes
    coeffs = [f.coefficient for f in plan.factors]
    if name != "s1":
        assert coeffs == coeffs[::-1]


@pytest.mark.parametrize("name", SCHEMES)
def test_offsets_equal_preceding_kinetic_sums(name):
    plan = builtin_plan(name)
    acc = Fraction(0)
    for f in plan.factors:
        if f.kind == KINETIC:
            acc += f.coefficient
        else:
            assert f.time_offset == acc
    assert acc == Fraction(1)


def test_named_offsets():
    s2 = builtin_plan("s2")
    assert [f.time_offset for f in s2.factors if f.kind != KINETIC] == [0, 1]
    s4c = builtin_plan("s4c")
    offs = [f.time_offset for f in s4c.factors if f.kind != KINETIC]
    assert offs == [Fraction(0), Fraction(1, 2), Fraction(1)]
    kinds = [f.kind for f in s4c.factors]
    assert kinds == [POTENTIAL, KINETIC, COMPACT_POTENTIAL, KINETIC, POTENTIAL]
    s1 = builtin_plan("s1")
    assert s1.factors[0].kind == POTENTIAL and s1.factors[0].time_offset == 0


def test_s4rk_layout():
    plan = builtin_plan("s4rk")
    kinds = [f.kind for f in plan.factors]
    assert kinds[0] == KINETIC and kinds[-1] == KINETIC
    assert all(k == (KINETIC if i % 2 == 0 else POTENTIAL)
               for i, k in enumerate(kinds))


def test_zeroed_offsets():
    plan = zeroed_offsets(builtin_plan("s4c"))
    assert all(f.time_offset == 0 for f in plan.factors if f.kind != KINETIC)


def test_factor_rejects_unknown_kind():
    with pytest.raises(ValueError):
        Factor("drift", Fraction(1))


def _gaussian(grid, ncomp=2):
    x = grid.axis_points(0)
    data = np.zeros(grid.shape + (ncomp,), dtype=np.complex128)
    data[..., 0] = np.exp(-0.5 * x * x)
    return SpinorField(grid, data)


@pytest.mark.parametrize("name", SCHEMES)
def test_free_evolution_is_a_kinetic_step(name):
    grid = PeriodicGrid.line(-10.0, 10.0, 128)
    f = _gaussian(grid)
    got = step(f, 0.0, 0.25, builtin_plan(name), ZeroPotential())
    want = kinetic_step(f, 0.25)
    assert np.max(np.abs(got.data - want.data)) <= 1e-11


def test_static_model_ignores_offsets():
    grid = PeriodicGrid.line(-10.0, 10.0, 128)
    model = KleinStep(V0=2.0, L=0.5)
    f = _gaussian(grid)
    plan = builtin_plan("s4c")
    a = step(f, 0.3, 0.125, plan, model)
    b = step(f, 0.3, 0.125, zeroed_offsets(plan), model)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("name", SCHEMES)
def test_mass_conserved_over_many_steps(name):
    grid = PeriodicGrid.line(-8.0, 8.0, 64)
    model = TimeDependent1D()
    f = _gaussian(grid)
    m0 = mass(f)
    f = evolve(f, 0.0, 0.5, 1.0 / 400.0, builtin_plan(name), model)
    assert abs(mass(f) - m0) <= 1e-12 * m0


def _order_study(plan, taus, reference, grid, model, t_max):
    errs = []
    for tau in taus:
        f = evolve(_gaussian(grid), 0.0, t_max, tau, plan, model)
        errs.append(error_norms(f, reference).e_phi)
    return errs


_ORDER_GATES = {"s1": (0.8, 1.25), "s2": (1.8, 2.2), "s4": (3.5, 4.5),
                "s4rk": (3.5, 4.5), "s4c": (3.5, 4.5)}


@pytest.fixture(scope="module")
def order_reference():
    grid = PeriodicGrid.line(-16.0, 16.0, 256)
    model = TimeDependent1D()
    t_max = 0.5
    ref = evolve(_gaussian(grid), 0.0, t_max, 1.0 / 4096.0,
                 builtin_plan("s4c"), model)
    return grid, model, t_max, ref


@pytest.mark.parametrize("name", SCHEMES)
def test_empirical_temporal_order(name, order_reference):
    grid, model, t_max, ref = order_reference
    taus = [1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0]
    errs = _order_study(builtin_plan(name), taus, ref, grid, model, t_max)
    rate = np.log2(errs[0] / errs[-1]) / 2.0
    lo, hi = _ORDER_GATES[name]
    assert lo <= rate <= hi, (name, errs, rate)


def test_zeroed_offsets_demote_compact_scheme(order_reference):
    grid, model, t_max, ref = order_reference
    taus = [1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0]
    plan = zeroed_offsets(builtin_plan("s4c"))
    errs = _order_study(plan, taus, ref, grid, model, t_max)
    rate = np.log2(errs[0] / errs[-1]) / 2.0
    assert rate <= 2.6, (errs, rate)


def test_evolve_validates_step_count():
    grid = PeriodicGrid.line(-4.0, 4.0, 16)
    f = _gaussian(grid)
    model = ZeroPotential()
    plan = builtin_plan("s2")
    with pytest.raises(ValueError):
        evolve(f, 0.0, 1.0, -0.1, plan, model)
    with pytest.raises(ValueError):
        evolve(f, 0.0, 1.0, 0.3, plan, model)
    # decimal tau that only divides up to binary roundoff is accepted
    evolve(f, 0.0, 1.0, 0.1, plan, model)


def test_observer_calls_and_stride():
    grid = PeriodicGrid.line(-4.0, 4.0, 16)
    f = _gaussian(grid)
    seen = []
    evolve(f, 1.0, 2.0, 0.1, builtin_plan("s2"), ZeroPotential(),
           observer=lambda n, t, fld: seen.append((n, t)), stride=3)
    assert [n for n, _ in seen] == [0, 3, 6, 9, 10]
    for n, t in seen:
        assert t == pytest.approx(1.0 + 0.1 * n, abs=1e-14)


def test_observer_stride_must_be_positive():
    grid = PeriodicGrid.line(-4.0, 4.0, 16)
    f = _gaussian(grid)
    for stride in (0, -2):
        with pytest.raises(ValueError, match="stride"):
            evolve(f, 0.0, 1.0, 0.25, builtin_plan("s2"), ZeroPotential(),
                   observer=lambda n, t, fld: None, stride=stride)
