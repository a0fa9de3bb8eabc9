"""Command-line workbench: config parsing and the run/convergence/klein/
commutator-check/plan subcommands.

Configs are plain text, one `key = value` per line, grouped by dotted
key prefixes (grid.*, time.*, potential.*, constants.*, initial.*,
output.*, convergence.*).  Lines starting with # and blank lines are
ignored.  Unknown or inapplicable keys are hard errors.  All numeric
output is deterministic for a fixed thread count; wall-clock columns
are the one exception.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .experiments import (ConvergenceSetup, convergence_study, klein_initial,
                          klein_transmission_analytic, transmitted_fraction)
from .fields import SpinorField, mass
from .grids import PeriodicGrid, from_modes
from .integrators import KINETIC, SCHEMES, builtin_plan, evolve, step_count
from .potentials import (CustomPotential, Honeycomb2D, KleinStep,
                         TimeDependent1D, ZeroPotential)
from .propagators import commutator_bruteforce, commutator_coefficients
from .snapshots import write_snapshot

POTENTIAL_KINDS = ("zero", "td1d", "klein_step", "honeycomb", "custom")
INITIAL_KINDS = ("gaussian", "klein")

COMMUTATOR_TOLERANCE = 1e-9


class ConfigError(ValueError):
    pass


@dataclasses.dataclass
class SimulationConfig:
    dimension: int = 1
    components: int = 2
    scheme: str = "s4c"
    a: tuple = (-16.0,)
    b: tuple = (16.0,)
    points: tuple = (256,)
    tau: float = 0.01
    t_max: float = 1.0
    t0: float = 0.0
    c: float = 1.0
    m: float = 1.0
    e: float = 1.0
    potential_kind: str = "zero"
    potential_params: dict = dataclasses.field(default_factory=dict)
    initial_kind: str = "gaussian"
    k0: float = 106.0
    x0: float = -10.0
    output_prefix: str | None = None
    stride: int = 0
    conv_schemes: tuple = ("s1", "s2", "s4", "s4rk", "s4c")
    conv_taus: tuple = ()
    conv_tau_ref: float | None = None


def _parse_float(text):
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def _parse_int(text):
    return int(text.strip())


def _parse_floats(text):
    return tuple(_parse_float(p) for p in text.split(","))


def _parse_ints(text):
    return tuple(_parse_int(p) for p in text.split(","))


def _parse_names(text):
    return tuple(p.strip() for p in text.split(","))


_MISSING = object()


class _RawConfig:
    """Parsed key/value lines with line numbers, consumed key by key."""

    def __init__(self, entries):
        self.entries = entries

    def take(self, key, parse, default=_MISSING):
        if key in self.entries:
            text, line = self.entries.pop(key)
            try:
                return parse(text)
            except ConfigError:
                raise
            except Exception as exc:
                raise ConfigError(f"line {line}: bad value for {key}: {exc}")
        if default is _MISSING:
            raise ConfigError(f"missing required key {key}")
        return default

    def finish(self):
        if self.entries:
            key, (_, line) = next(iter(self.entries.items()))
            raise ConfigError(
                f"line {line}: key {key} is unknown or does not apply here")


def _parse_lines(lines):
    entries = {}
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        entries[key] = (value, lineno)
    return _RawConfig(entries)


_POTENTIAL_PARAM_KEYS = {
    "klein_step": ("V0", "L"),
    "honeycomb": ("case",),
    "custom": ("V_expr", "A1_expr", "A2_expr", "A3_expr"),
    "zero": (),
    "td1d": (),
}


def loads_config(text):
    raw = _parse_lines(text.splitlines())
    cfg = SimulationConfig()
    cfg.dimension = raw.take("dimension", _parse_int, 1)
    if cfg.dimension not in (1, 2, 3):
        raise ConfigError(f"dimension must be 1, 2 or 3, got {cfg.dimension}")
    cfg.components = raw.take("components", _parse_int, 4 if cfg.dimension == 3 else 2)
    if cfg.components not in (2, 4):
        raise ConfigError(f"components must be 2 or 4, got {cfg.components}")
    if cfg.dimension == 3 and cfg.components == 2:
        raise ConfigError("components = 2 requires dimension <= 2")
    cfg.scheme = raw.take("scheme", str, "s4c")
    if cfg.scheme not in SCHEMES:
        raise ConfigError(f"unknown scheme {cfg.scheme}; choose from {SCHEMES}")

    def _axis(name, parse, default):
        vals = raw.take(name, parse, default)
        if len(vals) == 1 and cfg.dimension > 1:
            vals = vals * cfg.dimension
        if len(vals) != cfg.dimension:
            raise ConfigError(
                f"{name} needs {cfg.dimension} comma-separated values, "
                f"got {len(vals)}")
        return vals

    cfg.a = _axis("grid.a", _parse_floats, (-16.0,))
    cfg.b = _axis("grid.b", _parse_floats, (16.0,))
    cfg.points = _axis("grid.M", _parse_ints, (256,))
    for aa, bb in zip(cfg.a, cfg.b):
        if not bb > aa:
            raise ConfigError(f"grid.b must exceed grid.a, got ({aa}, {bb})")
    for mm in cfg.points:
        if mm < 4 or mm % 2:
            raise ConfigError(f"grid.M must be even and >= 4, got {mm}")

    cfg.tau = raw.take("time.tau", _parse_float, 0.01)
    if cfg.tau <= 0:
        raise ConfigError(f"time.tau must be positive, got {cfg.tau}")
    cfg.t0 = raw.take("time.t0", _parse_float, 0.0)
    cfg.t_max = raw.take("time.t_max", _parse_float, 1.0)
    if cfg.t_max <= cfg.t0:
        raise ConfigError("time.t_max must exceed time.t0")
    try:
        step_count(cfg.t0, cfg.t_max, cfg.tau)
    except ValueError as exc:
        raise ConfigError(
            f"time.tau must divide time.t_max - time.t0: {exc}") from None

    cfg.c = raw.take("constants.c", _parse_float, 1.0)
    cfg.m = raw.take("constants.m", _parse_float, 1.0)
    cfg.e = raw.take("constants.e", _parse_float, 1.0)
    if cfg.c <= 0 or cfg.m < 0:
        raise ConfigError("constants.c must be positive and constants.m >= 0")

    cfg.potential_kind = raw.take("potential.kind", str, "zero")
    if cfg.potential_kind not in POTENTIAL_KINDS:
        raise ConfigError(f"unknown potential.kind {cfg.potential_kind}; "
                          f"choose from {POTENTIAL_KINDS}")
    params = {}
    kind = cfg.potential_kind
    if kind == "klein_step":
        params["V0"] = raw.take("potential.V0", _parse_float)
        params["L"] = raw.take("potential.L", _parse_float)
        if params["L"] <= 0:
            raise ConfigError("potential.L must be positive")
    elif kind == "honeycomb":
        params["case"] = raw.take("potential.case", _parse_int)
        if params["case"] not in (1, 2, 3):
            raise ConfigError(f"potential.case must be 1, 2 or 3, "
                              f"got {params['case']}")
    elif kind == "custom":
        params["V_expr"] = raw.take("potential.V_expr", str, "0")
        for k in range(1, 4):
            key = f"potential.A{k}_expr"
            expr = raw.take(key, str, None)
            if expr is not None:
                params[f"A{k}_expr"] = expr
    cfg.potential_params = params

    cfg.initial_kind = raw.take("initial.kind", str, "gaussian")
    if cfg.initial_kind not in INITIAL_KINDS:
        raise ConfigError(f"unknown initial.kind {cfg.initial_kind}; "
                          f"choose from {INITIAL_KINDS}")
    if cfg.initial_kind == "klein":
        if cfg.dimension != 1 or cfg.components != 2:
            raise ConfigError("initial.kind = klein needs dimension = 1 "
                              "and components = 2")
        cfg.k0 = raw.take("initial.k0", _parse_float, 106.0)
        cfg.x0 = raw.take("initial.x0", _parse_float, -10.0)

    cfg.output_prefix = raw.take("output.prefix", str, None)
    cfg.stride = raw.take("output.stride", _parse_int, 0)
    if cfg.stride < 0:
        raise ConfigError(f"output.stride must be >= 0, got {cfg.stride}")

    cfg.conv_schemes = raw.take("convergence.schemes", _parse_names,
                                ("s1", "s2", "s4", "s4rk", "s4c"))
    for name in cfg.conv_schemes:
        if name not in SCHEMES:
            raise ConfigError(f"convergence.schemes: unknown scheme {name}")
    cfg.conv_taus = raw.take("convergence.taus", _parse_floats, ())
    for tv in cfg.conv_taus:
        if tv <= 0:
            raise ConfigError("convergence.taus must be positive")
    cfg.conv_tau_ref = raw.take("convergence.tau_ref", _parse_float, None)
    raw.finish()
    _validate_model(cfg)
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    try:
        return loads_config(text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}")


def _validate_model(cfg):
    model = build_model(cfg)
    try:
        model.check_dimension(cfg.dimension)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if cfg.potential_kind == "honeycomb" and cfg.dimension != 2:
        raise ConfigError("potential.kind = honeycomb needs dimension = 2")
    if cfg.potential_kind in ("td1d", "klein_step") and cfg.dimension != 1:
        raise ConfigError(
            f"potential.kind = {cfg.potential_kind} needs dimension = 1")


def dumps_config(cfg):
    """Canonical text form; loads_config(dumps_config(c)) == c."""
    lines = [
        f"dimension = {cfg.dimension}",
        f"components = {cfg.components}",
        f"scheme = {cfg.scheme}",
        "grid.a = " + ", ".join(repr(v) for v in cfg.a),
        "grid.b = " + ", ".join(repr(v) for v in cfg.b),
        "grid.M = " + ", ".join(str(v) for v in cfg.points),
        f"time.tau = {cfg.tau!r}",
        f"time.t0 = {cfg.t0!r}",
        f"time.t_max = {cfg.t_max!r}",
        f"constants.c = {cfg.c!r}",
        f"constants.m = {cfg.m!r}",
        f"constants.e = {cfg.e!r}",
        f"potential.kind = {cfg.potential_kind}",
    ]
    for key, val in cfg.potential_params.items():
        lines.append(f"potential.{key} = {val!r}" if isinstance(val, float)
                     else f"potential.{key} = {val}")
    lines.append(f"initial.kind = {cfg.initial_kind}")
    if cfg.initial_kind == "klein":
        lines.append(f"initial.k0 = {cfg.k0!r}")
        lines.append(f"initial.x0 = {cfg.x0!r}")
    if cfg.output_prefix is not None:
        lines.append(f"output.prefix = {cfg.output_prefix}")
    lines.append(f"output.stride = {cfg.stride}")
    lines.append("convergence.schemes = " + ", ".join(cfg.conv_schemes))
    if cfg.conv_taus:
        lines.append("convergence.taus = "
                     + ", ".join(repr(v) for v in cfg.conv_taus))
    if cfg.conv_tau_ref is not None:
        lines.append(f"convergence.tau_ref = {cfg.conv_tau_ref!r}")
    return "\n".join(lines) + "\n"


def build_grid(cfg):
    return PeriodicGrid.box(list(zip(cfg.a, cfg.b, cfg.points)))


def build_model(cfg):
    consts = dict(c=cfg.c, m=cfg.m, e=cfg.e)
    kind = cfg.potential_kind
    p = cfg.potential_params
    if kind == "zero":
        return ZeroPotential(**consts)
    if kind == "td1d":
        return TimeDependent1D(**consts)
    if kind == "klein_step":
        return KleinStep(V0=p["V0"], L=p["L"], **consts)
    if kind == "honeycomb":
        return Honeycomb2D(case=p["case"], **consts)
    a_exprs = []
    for k in range(1, cfg.dimension + 1):
        a_exprs.append(p.get(f"A{k}_expr", "0"))
    extra = [k for k in p if k.startswith("A") and
             int(k[1]) > cfg.dimension]
    if extra:
        raise ConfigError(f"potential.{extra[0]} exceeds dimension "
                          f"{cfg.dimension}")
    while a_exprs and a_exprs[-1] == "0":
        a_exprs.pop()
    try:
        return CustomPotential(v_expr=p.get("V_expr", "0"),
                               a_exprs=tuple(a_exprs), **consts)
    except ValueError as exc:
        raise ConfigError(f"potential expression: {exc}")


def build_initial(cfg, grid):
    if cfg.initial_kind == "klein":
        return klein_initial(grid, cfg.k0, cfg.x0, cfg.c, cfg.m)
    xs = grid.meshgrid()
    r2 = sum(x * x for x in xs)
    shifted = (xs[0] - 1.0) ** 2 + sum(x * x for x in xs[1:])
    data = np.zeros(grid.shape + (cfg.components,), dtype=complex)
    data[..., 0] = np.exp(-0.5 * r2)
    data[..., 1] = np.exp(-0.5 * shifted)
    return SpinorField(grid, data)


# --- output helpers ----------------------------------------------------------

def _sci(x):
    return f"{x:.15e}"


def _write_text(path, text, stdout):
    if path is None:
        stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


# --- subcommands --------------------------------------------------------------

def cmd_run(args, stdout):
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    model = build_model(cfg)
    plan = builtin_plan(cfg.scheme)
    field = build_initial(cfg, grid)
    n_steps = step_count(cfg.t0, cfg.t_max, cfg.tau)
    stride = cfg.stride if cfg.stride > 0 else n_steps
    snapshots = []

    def observer(n, t, f):
        if cfg.output_prefix is not None:
            name = f"{cfg.output_prefix}_{n:08d}.dspn"
            write_snapshot(name, f, t)
            snapshots.append({"step": n, "t": t, "file": name})
        else:
            snapshots.append({"step": n, "t": t})

    m0 = mass(field)
    tic = time.perf_counter()
    field = evolve(field, cfg.t0, cfg.t_max, cfg.tau, plan, model,
                   observer=observer, stride=stride)
    seconds = time.perf_counter() - tic
    m1 = mass(field)
    summary = {
        "scheme": cfg.scheme,
        "dimension": cfg.dimension,
        "components": cfg.components,
        "grid": {"a": list(cfg.a), "b": list(cfg.b), "M": list(cfg.points)},
        "tau": cfg.tau,
        "t0": cfg.t0,
        "t_max": cfg.t_max,
        "steps": n_steps,
        "potential": cfg.potential_kind,
        "initial_mass": m0,
        "final_mass": m1,
        "mass_drift": abs(m1 / m0 - 1.0) if m0 else 0.0,
        "snapshots": snapshots,
        "seconds": seconds,
    }
    path = (f"{cfg.output_prefix}_summary.json"
            if cfg.output_prefix is not None else None)
    _write_text(path, _json_text(summary), stdout)
    return 0


def cmd_convergence(args, stdout):
    cfg = load_config(args.config)
    if not cfg.conv_taus:
        raise ConfigError("convergence.taus is required")
    if cfg.conv_tau_ref is None:
        raise ConfigError("convergence.tau_ref is required")
    grid = build_grid(cfg)
    setup = ConvergenceSetup(grid, build_model(cfg), build_initial(cfg, grid),
                             cfg.t_max - cfg.t0, cfg.t0)
    reports = convergence_study(setup, list(cfg.conv_schemes),
                                list(cfg.conv_taus),
                                tau_ref=cfg.conv_tau_ref)
    lines = ["scheme,tau,e_phi,rate_phi,e_rho,rate_rho,e_j,rate_j,seconds"]
    for rep in reports:
        for i, tau in enumerate(rep.taus):
            rates = ("", "", "") if i == 0 else (
                _sci(rep.rates_phi[i - 1]), _sci(rep.rates_rho[i - 1]),
                _sci(rep.rates_j[i - 1]))
            lines.append(",".join([
                rep.scheme, _sci(tau),
                _sci(rep.e_phi[i]), rates[0],
                _sci(rep.e_rho[i]), rates[1],
                _sci(rep.e_j[i]), rates[2],
                _sci(rep.seconds[i]),
            ]))
    path = (f"{cfg.output_prefix}.csv"
            if cfg.output_prefix is not None else None)
    _write_text(path, "\n".join(lines) + "\n", stdout)
    return 0


def cmd_klein(args, stdout):
    cfg = load_config(args.config)
    if cfg.potential_kind != "klein_step":
        raise ConfigError("klein needs potential.kind = klein_step")
    if cfg.initial_kind != "klein":
        raise ConfigError("klein needs initial.kind = klein")
    grid = build_grid(cfg)
    model = build_model(cfg)
    field = build_initial(cfg, grid)
    field = evolve(field, cfg.t0, cfg.t_max, cfg.tau, builtin_plan(cfg.scheme),
                   model)
    t_num = transmitted_fraction(field)
    v0, step_l = cfg.potential_params["V0"], cfg.potential_params["L"]
    t_ana, regime = klein_transmission_analytic(cfg.k0, v0, step_l,
                                                cfg.c, cfg.m)
    mc2 = cfg.m * cfg.c * cfg.c
    e_k = float(np.sqrt(cfg.k0**2 * cfg.c**2 + mc2 * mc2))
    payload = {
        "k0": cfg.k0,
        "V0": v0,
        "L": step_l,
        "E_k": e_k,
        "T_ana": t_ana,
        "T_num": t_num,
        "rel_err": abs(t_num - t_ana) / t_ana if regime else None,
    }
    path = (f"{cfg.output_prefix}.json"
            if cfg.output_prefix is not None else None)
    _write_text(path, _json_text(payload), stdout)
    return 0


def _band_limited_field(grid, ncomp, rng):
    """Random field with spectral support on the inner third of modes."""
    spectrum = (rng.standard_normal(grid.shape + (ncomp,))
                + 1j * rng.standard_normal(grid.shape + (ncomp,)))
    for axis in range(grid.ndim):
        mu = grid.fourier_modes(axis)
        keep = np.abs(mu) <= np.max(np.abs(mu)) / 3.0
        shape = [1] * (grid.ndim + 1)
        shape[axis] = mu.size
        spectrum = spectrum * keep.reshape(shape)
    data = from_modes(spectrum, grid)
    scale = np.sqrt(mass(SpinorField(grid, data)))
    return SpinorField(grid, data / scale)


def cmd_commutator_check(args, stdout):
    cfg = load_config(args.config)
    grid = build_grid(cfg)
    model = build_model(cfg)
    d = cfg.dimension
    ncomps = (2, 4) if d <= 2 else (4,)
    t_eval = cfg.t0
    rows = []
    failed = False
    for ncomp in ncomps:
        coeffs = commutator_coefficients(model, t_eval, grid, ncomp)
        rng = np.random.default_rng(1000 + 10 * d + ncomp)
        worst = 0.0
        for _ in range(args.fields):
            f = _band_limited_field(grid, ncomp, rng)
            closed = coeffs.apply(f)
            brute = commutator_bruteforce(f, t_eval, model)
            err = np.linalg.norm(closed.data - brute.data)
            ref = np.linalg.norm(brute.data)
            worst = max(worst, err / ref if ref > 0.0 else err)
        ok = worst <= COMMUTATOR_TOLERANCE
        failed = failed or not ok
        rows.append((f"{d}d/{ncomp}comp", args.fields, worst, ok))
    width = max(len(r[0]) for r in rows)
    lines = [f"{'case':<{width}}  fields  max_rel_error  status"]
    for name, nf, worst, ok in rows:
        lines.append(f"{name:<{width}}  {nf:>6d}  {worst:13.6e}  "
                     f"{'pass' if ok else 'FAIL'}")
    stdout.write("\n".join(lines) + "\n")
    return 1 if failed else 0


def cmd_plan(args, stdout):
    try:
        plan = builtin_plan(args.scheme)
    except ValueError as exc:
        raise ConfigError(str(exc))
    lines = [f"scheme {plan.name}: order {plan.order}, "
             f"{len(plan.factors)} factors"]
    lines.append(f"{'#':>2}  {'kind':<17}  {'coefficient':<21}  time_offset")
    for k, f in enumerate(plan.factors, start=1):
        coef = _format_fraction(f.coefficient)
        off = "-" if f.kind == KINETIC else _format_fraction(f.time_offset)
        lines.append(f"{k:>2}  {f.kind:<17}  {coef:<21}  {off}")
    stdout.write("\n".join(lines) + "\n")
    return 0


def _format_fraction(q):
    if q.denominator == 1:
        return str(q.numerator)
    if q.denominator <= 10**6:
        return f"{q.numerator}/{q.denominator}"
    return repr(float(q))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diracsplit",
        description="Split-step solvers for the time-dependent Dirac "
                    "equation with time-dependent potentials.")
    parser.add_argument("--version", action="version",
                        version=f"diracsplit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve and write snapshots + summary")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_conv = sub.add_parser("convergence",
                            help="time-step ladder study, CSV output")
    p_conv.add_argument("config")
    p_conv.set_defaults(func=cmd_convergence)

    p_klein = sub.add_parser("klein",
                             help="step-potential transmission run, JSON "
                                  "output")
    p_klein.add_argument("config")
    p_klein.set_defaults(func=cmd_klein)

    p_chk = sub.add_parser("commutator-check",
                           help="closed-form vs brute-force double "
                                "commutator report")
    p_chk.add_argument("config")
    p_chk.add_argument("--fields", type=int, default=20,
                       help="random fields per case (default 20)")
    p_chk.set_defaults(func=cmd_commutator_check)

    p_plan = sub.add_parser("plan",
                            help="print a scheme's factors and time offsets")
    p_plan.add_argument("scheme")
    p_plan.set_defaults(func=cmd_plan)

    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
