"""Potential models: values, gradients, periodicity, custom expressions."""

import numpy as np
import pytest

from diracsplit import exprlang
from diracsplit.experiments import gaussian_pair
from diracsplit.grids import PeriodicGrid
from diracsplit.potentials import (
    CustomPotential,
    Honeycomb2D,
    KleinStep,
    TimeDependent1D,
    ZeroPotential,
    evaluate,
    honeycomb_theta,
)
from diracsplit.propagators import potential_step


def test_time_dependent_1d_values():
    v, a = evaluate(TimeDependent1D(), 1.0, (1.0,))
    assert v == pytest.approx(0.0, abs=1e-15)
    assert a[0] == pytest.approx(2.0, rel=1e-15)
    v, a = evaluate(TimeDependent1D(), 0.0, (3.0,))
    assert v == pytest.approx(1.0, rel=1e-15)  # t = 0: V = 1, A = 1
    assert a[0] == pytest.approx(1.0, rel=1e-15)


def test_klein_step_values():
    model = KleinStep(V0=100.0, L=0.5)
    v, a = evaluate(model, 0.0, (0.0,))
    assert v == pytest.approx(50.0, rel=1e-14)
    assert a == [0.0]
    v, _ = evaluate(model, 0.0, (50.0,))
    assert v == pytest.approx(100.0, rel=1e-14)
    v, _ = evaluate(model, 0.0, (-50.0,))
    assert v == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        KleinStep(V0=1.0, L=0.0)


def test_honeycomb_origin_and_theta():
    model = Honeycomb2D(case=1)
    v, _ = evaluate(model, 0.0, (0.0, 0.0))
    assert v == pytest.approx(3.0, rel=1e-14)
    assert honeycomb_theta(1, 0.7) == np.pi
    assert honeycomb_theta(2, 0.5) == pytest.approx(1.5 * np.pi)
    assert honeycomb_theta(3, 0.0) == pytest.approx(2.0 * np.pi)
    with pytest.raises(ValueError):
        Honeycomb2D(case=4)


@pytest.mark.parametrize("case,period", [(2, 1.0 / 3.0), (3, 2.0)])
def test_honeycomb_drive_periodicity(case, period):
    model = Honeycomb2D(case=case)
    assert model.period == pytest.approx(period)
    rng = np.random.default_rng(17)
    pts = rng.uniform(-5.0, 5.0, size=(20, 2))
    for t in (0.0, 0.21, 1.9):
        for x, y in pts:
            v0, _ = evaluate(model, t, (x, y))
            v1, _ = evaluate(model, t + period, (x, y))
            assert abs(v1 - v0) <= 1e-12


_MODELS_1D = [TimeDependent1D(), KleinStep(V0=7.0, L=0.3), ZeroPotential(),
              CustomPotential(v_expr="sin(x)*cos(t)", a_exprs=("tanh(x*t)",)),
              TimeDependent1D(e=0.7, c=137.0359895)]
_MODELS_2D = [Honeycomb2D(case=2),
              CustomPotential(v_expr="cos(x)*sin(y)",
                              a_exprs=("sin(x+y)", "x*y/(1+t^2)"))]


@pytest.mark.parametrize("model", _MODELS_1D + _MODELS_2D)
def test_gradients_match_finite_differences(model):
    rng = np.random.default_rng(23)
    d = model.native_dim
    for trial in range(20):
        t = rng.uniform(0.0, 2.0)
        pt = rng.uniform(-2.0, 2.0, size=d)
        xs = [np.asarray(v) for v in pt]
        dv = model.scalar_gradient(t, xs)
        da = model.magnetic_gradient(t, xs)
        h = 1e-6
        for j in range(d):
            up = list(pt)
            dn = list(pt)
            up[j] += h
            dn[j] -= h
            vu, au = evaluate(model, t, up)
            vd, ad = evaluate(model, t, dn)
            fd_v = (vu - vd) / (2.0 * h)
            assert abs(fd_v - float(np.asarray(dv[j]))) <= 1e-7 * max(1.0, abs(fd_v))
            for k in range(d):
                fd_a = (au[k] - ad[k]) / (2.0 * h)
                assert abs(fd_a - float(np.asarray(da[k][j]))) <= 1e-7 * max(1.0, abs(fd_a))


def test_gradients_never_differentiate_after_construction(monkeypatch):
    def refuse(expr, var):
        raise AssertionError("differentiate called after construction")

    monkeypatch.setattr(exprlang, "differentiate", refuse)
    xs = [np.linspace(-2.0, 2.0, 7), np.linspace(-1.0, 3.0, 7)]
    for model in _MODELS_1D + _MODELS_2D:
        for d in range(model.native_dim, 3):
            assert len(model.scalar_gradient(0.37, xs[:d])) == d
            assert len(model.magnetic_gradient(0.37, xs[:d])) == d


def test_undifferentiable_expression_fails_only_at_gradient():
    # stepping reads no gradient, so u^v is still a usable potential
    model = CustomPotential(v_expr="(1 + x*x)^x")
    assert float(model.scalar(0.0, (np.asarray(0.0),))) == 1.0
    with pytest.raises(ValueError, match="differentiate"):
        model.scalar_gradient(0.0, (np.asarray(0.0),))


def test_custom_matches_builtin_time_dependent_1d():
    custom = CustomPotential(v_expr="(1 - t*x)/(1 + t^2*x^2)",
                             a_exprs=("(t*x + 1)^2/(1 + t^2*x^2)",))
    builtin = TimeDependent1D()
    rng = np.random.default_rng(41)
    for _ in range(50):
        t = rng.uniform(0.0, 3.0)
        x = rng.uniform(-8.0, 8.0)
        vc, ac = evaluate(custom, t, (x,))
        vb, ab = evaluate(builtin, t, (x,))
        assert vc == pytest.approx(vb, rel=1e-13, abs=1e-13)
        assert ac[0] == pytest.approx(ab[0], rel=1e-13)
    assert custom.time_dependent and not custom.magnetic_zero
    assert custom.native_dim == 1


def test_model_flags():
    assert ZeroPotential().magnetic_zero and not ZeroPotential().time_dependent
    assert KleinStep(V0=1.0).magnetic_zero and not KleinStep(V0=1.0).time_dependent
    assert Honeycomb2D(case=1).time_dependent is False
    assert Honeycomb2D(case=3).time_dependent is True
    static = CustomPotential(v_expr="x^2")
    assert not static.time_dependent and static.magnetic_zero


def test_dimension_lifting_and_checks():
    model = Honeycomb2D(case=1)
    with pytest.raises(ValueError):
        model.check_dimension(1)
    # a 1d model lifts to 2d: extra coordinate is ignored, A_2 = 0
    v, a = evaluate(TimeDependent1D(), 1.0, (1.0, 5.0))
    assert v == pytest.approx(0.0, abs=1e-15)
    assert a[0] == pytest.approx(2.0) and a[1] == 0.0


def test_constants_validation():
    with pytest.raises(ValueError):
        ZeroPotential(c=0.0)
    model = KleinStep(V0=1.0, L=1.0, c=137.0359895)
    assert model.c == pytest.approx(137.0359895)
    for bad in (dict(c=np.inf), dict(m=np.nan), dict(e=np.nan), dict(e=-np.inf)):
        with pytest.raises(ValueError, match="finite"):
            ZeroPotential(**bad)
        with pytest.raises(ValueError, match="finite"):
            TimeDependent1D(**bad)
    for bad in (dict(V0=np.inf), dict(V0=np.nan), dict(L=np.inf)):
        with pytest.raises(ValueError, match="finite"):
            KleinStep(**bad)


def test_presets_reproduce_closed_forms_bit_for_bit():
    """The expression presets evaluate exactly the numpy closed forms."""
    x, y = np.meshgrid(np.linspace(-7.3, 6.1, 23), np.linspace(-5.2, 8.4, 19),
                       indexing="ij", sparse=True)
    for model in (TimeDependent1D(), TimeDependent1D(e=0.7, c=137.0359895)):
        for xs in ((x[:, 0],), (x, y)):
            for t in (0.0, 0.37, 1.3):
                tx = t * xs[0]
                np.testing.assert_array_equal(
                    model.scalar(t, xs), (1.0 - tx) / (1.0 + tx ** 2))
                want = [(tx + 1.0) ** 2 / (1.0 + tx ** 2)] + [0.0] * (len(xs) - 1)
                for got, ak in zip(model.magnetic(t, xs), want, strict=True):
                    np.testing.assert_array_equal(got, ak)
    for V0, L in ((100.0, 0.5), (-5.0, 0.3), (6.13e4, 1e-4)):
        want = 0.5 * V0 * (1.0 + np.tanh(x / L))
        np.testing.assert_array_equal(KleinStep(V0=V0, L=L).scalar(0.0, (x,)), want)
    kappa = 4.0 * np.pi / np.sqrt(3.0)
    thetas = {1: lambda t: np.pi,
              2: lambda t: np.pi + np.pi * t,
              3: lambda t: np.pi + np.pi * np.cos(np.pi * t)}
    for case, theta in thetas.items():
        model = Honeycomb2D(case=case)
        for t in (0.0, 0.125, 0.37, 1.3):
            want = np.float64(0.0)
            for ang in theta(t) + 2.0 * np.pi / 3.0 * np.arange(3):
                want = want + np.cos(kappa * (np.cos(ang) * x + np.sin(ang) * y))
            np.testing.assert_array_equal(model.scalar(t, (x, y)), want)
            assert honeycomb_theta(case, t) == theta(t)


def test_time_dependent_1d_overflow_is_a_typed_error():
    # (t*x)^2 overflows at t = 1e200 and A_1 = inf/inf: no NaN may reach
    # a stepping factor
    with pytest.raises(exprlang.ExprEvalError):
        TimeDependent1D().magnetic(1e200, (np.array([1.0]),))


def test_model_hash_is_taken_once(monkeypatch):
    models = [Honeycomb2D(case=1), KleinStep(V0=7.0, L=0.3), TimeDependent1D(),
              CustomPotential(v_expr="x*x + 1")]
    want = [hash(m) for m in models]

    def refuse(self):
        raise AssertionError("expression tree hashed after construction")

    monkeypatch.setattr(exprlang.BinOp, "__hash__", refuse)
    assert [hash(m) for m in models] == want
    grid = PeriodicGrid.box([(-4.0, 4.0, 16)] * 2)
    field = gaussian_pair(grid, 2)
    for model in (models[0], models[3]):
        for _ in range(2):  # a cache miss, then a hit
            potential_step(field, 0.0, 0.1, model)
