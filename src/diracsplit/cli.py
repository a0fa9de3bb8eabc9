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

import numpy as np

from . import __version__
from .experiments import (ConvergenceSetup, convergence_study, gaussian_pair,
                          klein_initial, klein_report)
from .fields import SpinorField, mass
from .grids import PeriodicGrid, _workers, from_modes, mode_mesh
from .integrators import KINETIC, builtin_plan, evolve, step_count
from .potentials import (CustomPotential, Honeycomb2D, KleinStep,
                         TimeDependent1D, ZeroPotential)
from .propagators import commutator_bruteforce, commutator_coefficients
from .snapshots import write_snapshot

POTENTIAL_KINDS = ("zero", "td1d", "klein_step", "honeycomb", "custom")
INITIAL_KINDS = ("gaussian", "klein")

COMMUTATOR_TOLERANCE = 1e-9


class ConfigError(ValueError):
    pass


def _built(default=None):
    return dataclasses.field(default=default, compare=False, repr=False)


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
    # what loads_config built while checking the values above; the run
    # uses these objects, and they take no part in comparisons
    grid: PeriodicGrid | None = _built()
    model: object = _built()
    plan: object = _built()
    conv_plans: tuple = _built(())
    steps: int | None = _built()
    initial: SpinorField | None = _built()


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
        self.lines = {}

    def take(self, key, parse, default=_MISSING):
        if key in self.entries:
            text, line = self.entries.pop(key)
            self.lines[key] = line
            try:
                return parse(text)
            except Exception as exc:
                raise ConfigError(f"line {line}: bad value for {key}: {exc}")
        if default is _MISSING:
            raise ConfigError(f"missing required key {key}")
        return default

    def error(self, keys, message):
        """ConfigError for ``message`` about the values of ``keys``.

        The message names the keys among ``keys`` that the text set (all
        of ``keys`` when it set none) and starts with the line of the
        first of them.
        """
        given = sorted((k for k in keys if k in self.lines), key=self.lines.get)
        where = f"line {self.lines[given[0]]}: " if given else ""
        return ConfigError(f"{where}{', '.join(given or keys)}: {message}")

    def check(self, keys, build, *args):
        """Return build(*args), reporting its ValueError as a ConfigError."""
        try:
            return build(*args)
        except ValueError as exc:
            raise self.error(keys, exc) from None

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


def loads_config(text):
    """Parse config text into a SimulationConfig.

    Ranges and relations are checked by the library constructors the
    values feed, so each rule lives in one place; a rejection is a
    ConfigError that names the line and key at fault.  The objects those
    constructors return (grid, model, plans, step count, initial field)
    ride along on the config for the subcommands to run.
    """
    raw = _parse_lines(text.splitlines())
    cfg = SimulationConfig()
    cfg.dimension = raw.take("dimension", _parse_int, cfg.dimension)
    if cfg.dimension not in (1, 2, 3):
        raise raw.error(("dimension",),
                        f"must be 1, 2 or 3, got {cfg.dimension}")
    cfg.components = raw.take("components", _parse_int,
                              4 if cfg.dimension == 3 else cfg.components)
    if cfg.components not in (2, 4):
        raise raw.error(("components",),
                        f"must be 2 or 4, got {cfg.components}")
    if cfg.dimension == 3 and cfg.components == 2:
        raise raw.error(("dimension", "components"),
                        "components = 2 requires dimension <= 2")
    cfg.scheme = raw.take("scheme", str, cfg.scheme)

    def _axis(name, parse, default):
        vals = raw.take(name, parse, default)
        if len(vals) == 1 and cfg.dimension > 1:
            vals = vals * cfg.dimension
        if len(vals) != cfg.dimension:
            raise raw.error((name,), f"needs {cfg.dimension} comma-separated "
                                     f"values, got {len(vals)}")
        return vals

    cfg.a = _axis("grid.a", _parse_floats, cfg.a)
    cfg.b = _axis("grid.b", _parse_floats, cfg.b)
    cfg.points = _axis("grid.M", _parse_ints, cfg.points)
    cfg.tau = raw.take("time.tau", _parse_float, cfg.tau)
    cfg.t0 = raw.take("time.t0", _parse_float, cfg.t0)
    cfg.t_max = raw.take("time.t_max", _parse_float, cfg.t_max)
    cfg.c = raw.take("constants.c", _parse_float, cfg.c)
    cfg.m = raw.take("constants.m", _parse_float, cfg.m)
    cfg.e = raw.take("constants.e", _parse_float, cfg.e)

    kind = cfg.potential_kind = raw.take("potential.kind", str,
                                         cfg.potential_kind)
    if kind not in POTENTIAL_KINDS:
        raise raw.error(("potential.kind",),
                        f"unknown kind {kind}; choose from {POTENTIAL_KINDS}")
    need = {"td1d": 1, "klein_step": 1, "honeycomb": 2}.get(kind, cfg.dimension)
    if cfg.dimension != need:
        raise raw.error(("dimension", "potential.kind"),
                        f"{kind} needs dimension = {need}")
    params = cfg.potential_params
    if kind == "klein_step":
        params["V0"] = raw.take("potential.V0", _parse_float)
        params["L"] = raw.take("potential.L", _parse_float)
    elif kind == "honeycomb":
        params["case"] = raw.take("potential.case", _parse_int)
    elif kind == "custom":
        params["V_expr"] = raw.take("potential.V_expr", str, "0")
        for k in range(1, 4):
            expr = raw.take(f"potential.A{k}_expr", str, None)
            if expr is not None:
                params[f"A{k}_expr"] = expr

    cfg.initial_kind = raw.take("initial.kind", str, cfg.initial_kind)
    if cfg.initial_kind not in INITIAL_KINDS:
        raise raw.error(("initial.kind",), f"unknown kind {cfg.initial_kind}; "
                                           f"choose from {INITIAL_KINDS}")
    if cfg.initial_kind == "klein":
        if cfg.dimension != 1 or cfg.components != 2:
            raise raw.error(("dimension", "components", "initial.kind"),
                            "klein needs dimension = 1 and components = 2")
        cfg.k0 = raw.take("initial.k0", _parse_float, cfg.k0)
        cfg.x0 = raw.take("initial.x0", _parse_float, cfg.x0)

    cfg.output_prefix = raw.take("output.prefix", str, cfg.output_prefix)
    cfg.stride = raw.take("output.stride", _parse_int, cfg.stride)
    if cfg.stride < 0:
        raise raw.error(("output.stride",), f"must be >= 0, got {cfg.stride}")
    cfg.conv_schemes = raw.take("convergence.schemes", _parse_names,
                                cfg.conv_schemes)
    cfg.conv_taus = raw.take("convergence.taus", _parse_floats, cfg.conv_taus)
    cfg.conv_tau_ref = raw.take("convergence.tau_ref", _parse_float,
                                cfg.conv_tau_ref)
    raw.finish()

    cfg.grid = raw.check(("grid.a", "grid.b", "grid.M"), build_grid, cfg)
    cfg.plan = raw.check(("scheme",), builtin_plan, cfg.scheme)
    cfg.conv_plans = tuple(raw.check(("convergence.schemes",), builtin_plan,
                                     name) for name in cfg.conv_schemes)
    steps = [("time.tau", cfg.tau)]
    steps += [("convergence.taus", tau) for tau in cfg.conv_taus]
    if cfg.conv_tau_ref is not None:
        steps.append(("convergence.tau_ref", cfg.conv_tau_ref))
    counts = [raw.check((key, "time.t0", "time.t_max"), step_count,
                        cfg.t0, cfg.t_max, tau) for key, tau in steps]
    cfg.steps = counts[0]
    pkeys = tuple(f"potential.{k}" for k in params)
    cfg.model = raw.check(("constants.c", "constants.m", "constants.e")
                          + pkeys, build_model, cfg)
    raw.check(("dimension",) + pkeys, cfg.model.check_dimension,
              cfg.dimension)
    cfg.initial = raw.check(("initial.k0", "initial.x0"), build_initial, cfg,
                            cfg.grid)
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
    top = max((int(k[1]) for k in p if k.startswith("A")), default=0)
    a_exprs = [p.get(f"A{k}_expr", "0") for k in range(1, top + 1)]
    try:
        return CustomPotential(v_expr=p.get("V_expr", "0"),
                               a_exprs=tuple(a_exprs), **consts)
    except ValueError as exc:
        raise ConfigError(f"potential expression: {exc}")


def build_initial(cfg, grid):
    if cfg.initial_kind == "klein":
        return klein_initial(grid, cfg.k0, cfg.x0, cfg.c, cfg.m)
    return gaussian_pair(grid, cfg.components)


# --- output helpers ----------------------------------------------------------

def _sci(x):
    return f"{x:.15e}"


def _write_text(cfg, suffix, text, stdout):
    """Write to output.prefix + suffix, or to stdout without a prefix."""
    if cfg.output_prefix is None:
        stdout.write(text)
    else:
        with open(f"{cfg.output_prefix}{suffix}", "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload):
    return json.dumps(payload, indent=2) + "\n"


# --- subcommands --------------------------------------------------------------

def cmd_run(args, stdout):
    cfg = load_config(args.config)
    stride = cfg.stride if cfg.stride > 0 else cfg.steps
    snapshots = []

    def observer(n, t, f):
        if cfg.output_prefix is not None:
            name = f"{cfg.output_prefix}_{n:08d}.dspn"
            write_snapshot(name, f, t)
            snapshots.append({"step": n, "t": t, "file": name})
        else:
            snapshots.append({"step": n, "t": t})

    m0 = mass(cfg.initial)
    tic = time.perf_counter()
    field = evolve(cfg.initial, cfg.t0, cfg.t_max, cfg.tau, cfg.plan,
                   cfg.model, observer=observer, stride=stride)
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
        "steps": cfg.steps,
        "potential": cfg.potential_kind,
        "initial_mass": m0,
        "final_mass": m1,
        "mass_drift": abs(m1 / m0 - 1.0) if m0 else 0.0,
        "snapshots": snapshots,
        "seconds": seconds,
    }
    _write_text(cfg, "_summary.json", _json_text(summary), stdout)
    return 0


def cmd_convergence(args, stdout):
    cfg = load_config(args.config)
    if not cfg.conv_taus:
        raise ConfigError("convergence.taus is required")
    if cfg.conv_tau_ref is None:
        raise ConfigError("convergence.tau_ref is required")
    setup = ConvergenceSetup(cfg.grid, cfg.model, cfg.initial,
                             cfg.t_max - cfg.t0, cfg.t0)
    reports = convergence_study(setup, list(cfg.conv_plans),
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
    _write_text(cfg, ".csv", "\n".join(lines) + "\n", stdout)
    return 0


def cmd_klein(args, stdout):
    cfg = load_config(args.config)
    if cfg.potential_kind != "klein_step":
        raise ConfigError("klein needs potential.kind = klein_step")
    if cfg.initial_kind != "klein":
        raise ConfigError("klein needs initial.kind = klein")
    field = evolve(cfg.initial, cfg.t0, cfg.t_max, cfg.tau, cfg.plan,
                   cfg.model)
    rep = klein_report(field, cfg.model, cfg.k0, cfg.x0)
    payload = {"k0": rep.k0, "V0": rep.V0, "L": rep.L, "E_k": rep.E_k,
               "T_ana": rep.T_ana, "T_num": rep.T_num,
               "rel_err": rep.relative_error}
    _write_text(cfg, ".json", _json_text(payload), stdout)
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
    if args.fields < 1:
        raise ConfigError(f"--fields must be >= 1, got {args.fields}")
    cfg = load_config(args.config)
    grid, model = cfg.grid, cfg.model
    d = cfg.dimension
    ncomps = (2, 4) if d <= 2 else (4,)
    t_eval = cfg.t0
    if model.magnetic_zero:
        # With A = 0 the exact [W,[T,W]] is 0, so the brute force's
        # roundoff is measured against a bound on the operator instead.
        vmax = np.max(np.abs(model.scalar(t_eval, grid.meshgrid())))
        mumax = np.sqrt(sum(np.max(mu**2) for mu in mode_mesh(grid)))
        scale = model.e**2 * vmax**2 * (model.c * mumax + model.m * model.c**2)
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
            ref = (scale * np.linalg.norm(f.data) if model.magnetic_zero
                   else np.linalg.norm(brute.data))
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
                       help="random fields per case, >= 1 (default 20)")
    p_chk.set_defaults(func=cmd_commutator_check)

    p_plan = sub.add_parser("plan",
                            help="print a scheme's factors and time offsets")
    p_plan.add_argument("scheme")
    p_plan.set_defaults(func=cmd_plan)

    args = parser.parse_args(argv)
    try:
        try:
            _workers()
        except ValueError as exc:
            raise ConfigError(exc) from None
        return args.func(args, sys.stdout)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
