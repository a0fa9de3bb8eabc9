"""Electromagnetic potential models V(t, x), A(t, x).

A model evaluates the scalar potential, the magnetic potential
components and their spatial gradients on broadcastable coordinate
arrays (sparse meshes are fine; results broadcast against the grid
shape, absent components come back as 0-d zeros).  Models are immutable
and hashable, which lets the propagators cache grid evaluations of
time-independent models.  Physical constants ride along on the model:
c (speed of light), m (mass), e (charge); the defaults give the
dimensionless form of the equation, and all three must be finite.

Every model is a ``CustomPotential``: V and A are expressions in t, x,
y, z, differentiated by ``exprlang``, and the model's native
dimension, time dependence and A = 0 flag are read off the same trees.
Construction compiles V, each A_k and every derivative tree once with
``exprlang.compile_expr``; evaluation only calls those programs.
``ZeroPotential``, ``KleinStep``, ``Honeycomb2D`` and
``TimeDependent1D`` are presets that only fix those expressions from
their own parameters, and compare and hash as the expressions they
build.

A model has a native dimension (the coordinates it actually reads) but
evaluates on any grid of equal or higher dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import exprlang

_AXIS_NAMES = ("x", "y", "z")


def _as_expr(src):
    return exprlang.parse(src) if isinstance(src, str) else src


def _derivative(expr, var):
    """Compiled d expr / d var, or the ValueError differentiation raised.

    Stepping never reads gradients, so an expression the rules cannot
    differentiate (u^v) fails when a gradient is asked for, not at
    construction.
    """
    try:
        return exprlang.compile_expr(exprlang.differentiate(expr, var))
    except ValueError as exc:
        return exc


def _value(program, t, xs):
    if isinstance(program, ValueError):
        raise program
    return np.asarray(program(t, *xs), dtype=np.float64)


@dataclass(frozen=True)
class CustomPotential:
    """Potentials from expression strings in t, x, y, z.

    ``scalar(t, xs)`` gives V, ``magnetic(t, xs)`` the components
    [A_1 .. A_d] for d = len(xs), ``scalar_gradient(t, xs)``
    [dV/dx_1 .. dV/dx_d] and ``magnetic_gradient(t, xs)`` dA_k/dx_j as
    a nested list indexed [k][j].  Omitted magnetic components are
    identically zero.  Every method calls programs compiled once, at
    construction, from the expressions and their derivative trees; a
    non-finite value raises ``exprlang.ExprEvalError``.  The native
    dimension counts the magnetic components and the highest axis any
    expression reads.
    """

    c: float = 1.0
    m: float = 1.0
    e: float = 1.0
    v_expr: exprlang.Expr = "0"
    a_exprs: tuple = ()

    def __post_init__(self):
        if not np.isfinite([self.c, self.m, self.e]).all():
            raise ValueError(f"constants c, m and e must be finite, got "
                             f"({self.c}, {self.m}, {self.e})")
        if self.c <= 0 or self.m < 0:
            raise ValueError("constants require c > 0 and m >= 0")
        v = _as_expr(self.v_expr)
        a = tuple(_as_expr(ak) for ak in self.a_exprs)
        used = exprlang.free_variables(v).union(*map(exprlang.free_variables, a))
        axes = [k + 1 for k, name in enumerate(_AXIS_NAMES) if name in used]
        padded = a + (exprlang.Num(0.0),) * (len(_AXIS_NAMES) - len(a))
        object.__setattr__(self, "v_expr", v)
        object.__setattr__(self, "a_exprs", a)
        object.__setattr__(self, "native_dim", max([1, len(a)] + axes))
        object.__setattr__(self, "time_dependent", "t" in used)
        object.__setattr__(self, "magnetic_zero",
                           all(exprlang._const(ak) == 0.0 for ak in a))
        object.__setattr__(self, "_v", exprlang.compile_expr(v))
        object.__setattr__(self, "_a", tuple(map(exprlang.compile_expr, padded)))
        object.__setattr__(self, "_dv",
                           tuple(_derivative(v, name) for name in _AXIS_NAMES))
        object.__setattr__(self, "_da", tuple(
            tuple(_derivative(ak, name) for name in _AXIS_NAMES) for ak in padded))
        object.__setattr__(self, "_hash", hash((self.c, self.m, self.e, v, a)))

    def __hash__(self):
        # taken once: hashing the trees costs microseconds, and the
        # propagators' caches hash the model on every factor
        return self._hash

    def check_dimension(self, d):
        if d < self.native_dim:
            raise ValueError(
                f"{type(self).__name__} needs at least {self.native_dim} "
                f"space dimensions, grid has {d}"
            )

    def scalar(self, t, xs):
        return _value(self._v, t, xs)

    def magnetic(self, t, xs):
        return [_value(ak, t, xs) for ak in self._a[:len(xs)]]

    def scalar_gradient(self, t, xs):
        return [_value(d, t, xs) for d in self._dv[:len(xs)]]

    def magnetic_gradient(self, t, xs):
        return [[_value(d, t, xs) for d in row[:len(xs)]]
                for row in self._da[:len(xs)]]


# Presets are eq=False so that they keep CustomPotential's __eq__ (same
# class, constants and expressions; their parameters fix the expressions)
# and its hash taken once, where the dataclass would generate a __hash__
# that walks the trees on every call.

@dataclass(frozen=True, eq=False)
class ZeroPotential(CustomPotential):
    """V = 0, A = 0 in any dimension."""

    v_expr: exprlang.Expr = field(default="0", init=False)
    a_exprs: tuple = field(default=(), init=False)


@dataclass(frozen=True, eq=False)
class TimeDependent1D(CustomPotential):
    """Rational time-dependent pair used by the 1d convergence studies.

    V(t, x) = (1 - t*x) / (1 + t^2 x^2)
    A_1(t, x) = (t*x + 1)^2 / (1 + t^2 x^2)
    """

    v_expr: exprlang.Expr = field(default="(1 - t*x)/(1 + (t*x)*(t*x))",
                                  init=False)
    a_exprs: tuple = field(
        default=("(t*x + 1)*(t*x + 1)/(1 + (t*x)*(t*x))",), init=False)


@dataclass(frozen=True, eq=False)
class KleinStep(CustomPotential):
    """Static smoothed potential step V(x) = V0/2 (1 + tanh(x/L)), A = 0."""

    v_expr: exprlang.Expr = field(default="0", init=False)
    a_exprs: tuple = field(default=(), init=False)
    V0: float = 0.0
    L: float = 1.0

    def __post_init__(self):
        if not (np.isfinite([self.V0, self.L]).all() and self.L > 0):
            raise ValueError(f"step needs a finite height V0 and a finite width "
                             f"L > 0, got V0 = {self.V0}, L = {self.L}")
        v0, width = float(self.V0), float(self.L)
        object.__setattr__(self, "v_expr", f"0.5*{v0!r}*(1 + tanh(x/{width!r}))")
        super().__post_init__()


# lattice orientation theta(t) of the three honeycomb drive cases
_PI = repr(np.pi)
_HONEYCOMB_THETA = {1: _PI, 2: f"{_PI} + {_PI}*t",
                    3: f"{_PI} + {_PI}*cos({_PI}*t)"}


def _theta_source(case):
    try:
        return _HONEYCOMB_THETA[case]
    except (KeyError, TypeError):
        raise ValueError(f"honeycomb case must be 1, 2 or 3, got {case}") from None


def honeycomb_theta(case, t):
    """Lattice orientation angle for the three honeycomb drive cases."""
    return exprlang.evaluate(exprlang.parse(_theta_source(case)), {"t": t})


@dataclass(frozen=True, eq=False)
class Honeycomb2D(CustomPotential):
    """Superposition of three plane cosines at 120-degree spacing.

    V(t, x) = sum_k cos(kappa * e_k(t) . x) with kappa = 4*pi/sqrt(3) and
    unit vectors e_k at angles theta(t) + 2*pi*(k-1)/3.  Case 1 keeps
    theta = pi fixed; case 2 rotates uniformly (period 1/3); case 3
    rocks back and forth (period 2).  A = 0.
    """

    v_expr: exprlang.Expr = field(default="0", init=False)
    a_exprs: tuple = field(default=(), init=False)
    case: int = 1

    def __post_init__(self):
        theta = _theta_source(self.case)
        kappa = repr(float(4.0 * np.pi / np.sqrt(3.0)))
        terms = []
        for k in range(3):
            ang = f"{theta} + {2.0 * np.pi / 3.0 * k!r}"
            terms.append(f"cos({kappa}*(cos({ang})*x + sin({ang})*y))")
        object.__setattr__(self, "v_expr", " + ".join(terms))
        super().__post_init__()

    @property
    def period(self):
        return {1: 0.0, 2: 1.0 / 3.0, 3: 2.0}[self.case]


def evaluate(model, t, point):
    """Point evaluation: (V, [A_1 .. A_d]) at time t and position tuple."""
    xs = [np.asarray(float(v)) for v in point]
    model.check_dimension(len(xs))
    return float(model.scalar(t, xs)), [float(ak) for ak in model.magnetic(t, xs)]
