"""Split-step time integrators built from the exact factor flows.

A plan is a list of factors in application order (first entry acts
first).  Each factor scales the step: a kinetic factor with coefficient
a applies exp(a*tau*T), a potential factor with coefficient b applies
exp(b*tau*W(t_n + offset*tau)).  The evaluation-time offset of every
potential-family factor equals the sum of the kinetic coefficients
already applied before it; propagating the potentials' time argument
this way is what keeps the formal order of the underlying constant-
coefficient scheme for time-dependent potentials.  ``zeroed_offsets``
freezes all potentials at t_n instead, which demotes the order.

Coefficients are exact fractions where the scheme is rational; the
irrational schemes store the exact rational value of their double
precision coefficients so offset bookkeeping stays exact either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .propagators import compact_potential_step, kinetic_step, potential_step

KINETIC = "kinetic"
POTENTIAL = "potential"
COMPACT_POTENTIAL = "compact_potential"

_POTENTIAL_KINDS = (POTENTIAL, COMPACT_POTENTIAL)


@dataclass(frozen=True)
class Factor:
    kind: str
    coefficient: Fraction
    time_offset: Fraction | None = None

    def __post_init__(self):
        if self.kind not in (KINETIC,) + _POTENTIAL_KINDS:
            raise ValueError(f"unknown factor kind {self.kind!r}")


@dataclass(frozen=True)
class SplitStepPlan:
    name: str
    order: int
    factors: tuple


def assign_time_offsets(plan):
    """Set each potential factor's offset to the kinetic sum before it."""
    acc = Fraction(0)
    out = []
    for f in plan.factors:
        if f.kind == KINETIC:
            out.append(replace(f, time_offset=None))
            acc += f.coefficient
        else:
            out.append(replace(f, time_offset=acc))
    return replace(plan, factors=tuple(out))


def zeroed_offsets(plan):
    """Freeze every potential factor at t_n (for order-demotion studies)."""
    out = [replace(f, time_offset=Fraction(0)) if f.kind in _POTENTIAL_KINDS else f
           for f in plan.factors]
    return replace(plan, factors=tuple(out))


def _plan_s1():
    return SplitStepPlan("s1", 1, (
        Factor(POTENTIAL, Fraction(1)),
        Factor(KINETIC, Fraction(1)),
    ))


def _plan_s2():
    half = Fraction(1, 2)
    return SplitStepPlan("s2", 2, (
        Factor(POTENTIAL, half),
        Factor(KINETIC, Fraction(1)),
        Factor(POTENTIAL, half),
    ))


def _plan_s4():
    # triple jump over the Strang step: substeps w1, w0 = 1 - 2 w1, w1
    # with w1 = 1/(2 - 2^(1/3)); adjacent potential halves merge
    w1 = Fraction(1.0 / (2.0 - 2.0 ** (1.0 / 3.0)))
    w0 = 1 - 2 * w1
    return SplitStepPlan("s4", 4, (
        Factor(POTENTIAL, w1 / 2),
        Factor(KINETIC, w1),
        Factor(POTENTIAL, (w1 + w0) / 2),
        Factor(KINETIC, w0),
        Factor(POTENTIAL, (w0 + w1) / 2),
        Factor(KINETIC, w1),
        Factor(POTENTIAL, w1 / 2),
    ))


def _plan_s4rk():
    # symmetric 6-stage fourth-order partitioned Runge-Kutta splitting
    # (Blanes, Moan 2002); a_i scale the kinetic factors, b_i the
    # potential ones, palindromic with sums 1
    a1 = Fraction("0.0792036964311957")
    a2 = Fraction("0.353172906049774")
    a3 = Fraction("-0.0420650803577195")
    a4 = 1 - 2 * (a1 + a2 + a3)
    b1 = Fraction("0.209515106613362")
    b2 = Fraction("-0.143851773179818")
    b3 = Fraction(1, 2) - b1 - b2
    pattern = [a1, b1, a2, b2, a3, b3, a4, b3, a3, b2, a2, b1, a1]
    factors = []
    for k, coef in enumerate(pattern):
        kind = KINETIC if k % 2 == 0 else POTENTIAL
        factors.append(Factor(kind, coef))
    return SplitStepPlan("s4rk", 4, tuple(factors))


def _plan_s4c():
    return SplitStepPlan("s4c", 4, (
        Factor(POTENTIAL, Fraction(1, 6)),
        Factor(KINETIC, Fraction(1, 2)),
        Factor(COMPACT_POTENTIAL, Fraction(2, 3)),
        Factor(KINETIC, Fraction(1, 2)),
        Factor(POTENTIAL, Fraction(1, 6)),
    ))


_BUILDERS = {
    "s1": _plan_s1,
    "s2": _plan_s2,
    "s4": _plan_s4,
    "s4rk": _plan_s4rk,
    "s4c": _plan_s4c,
}

SCHEMES = tuple(_BUILDERS)


def builtin_plan(name):
    """Named scheme with offsets assigned: s1, s2, s4, s4rk or s4c."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown scheme {name!r}; choose from {SCHEMES}") from None
    return assign_time_offsets(builder())


def step(field, t, tau, plan, model):
    """Advance one step of size tau from time t."""
    for f in plan.factors:
        s = float(f.coefficient) * tau
        if f.kind == KINETIC:
            field = kinetic_step(field, s, c=model.c, m=model.m)
        else:
            t_eval = t + float(f.time_offset) * tau
            if f.kind == POTENTIAL:
                field = potential_step(field, t_eval, s, model)
            else:
                field = compact_potential_step(field, t_eval, s, tau, model)
    return field


def step_count(t0, t_max, tau):
    """Number of steps of size tau from t0 to t_max.

    Raises ValueError unless t0, t_max and tau are finite and
    (t_max - t0)/tau is a positive integer up to roundoff.
    """
    if not all(map(math.isfinite, (t0, t_max, tau))):
        raise ValueError(f"t0, t_max and tau must be finite, got "
                         f"({t0}, {t_max}, {tau})")
    if tau <= 0:
        raise ValueError(f"step size must be positive, got {tau}")
    ratio = (t_max - t0) / tau
    n_steps = round(ratio) if math.isfinite(ratio) else 0
    if n_steps < 1 or abs(ratio - n_steps) > 2.0**-33 * max(1.0, abs(ratio)):
        raise ValueError(
            f"(t_max - t0)/tau = {ratio!r} is not a positive integer step count"
        )
    return n_steps


def evolve(field, t0, t_max, tau, plan, model, observer=None, stride=1):
    """March from t0 to t_max in steps of tau.

    (t_max - t0)/tau must be an integer up to roundoff (``step_count``).
    The observer, when given, is called as observer(n, t_n, field) at
    n = 0, every ``stride`` steps, and at the final step.
    """
    n_steps = step_count(t0, t_max, tau)
    if stride < 1:
        raise ValueError(f"observer stride must be >= 1, got {stride}")
    if observer is not None:
        observer(0, t0, field)
    for n in range(1, n_steps + 1):
        field = step(field, t0 + (n - 1) * tau, tau, plan, model)
        if observer is not None and (n % stride == 0 or n == n_steps):
            observer(n, t0 + n * tau, field)
    return field
