"""The benchmark's workloads, their correctness checks and their probes.

Every workload is a closed loop with one caller: each operation starts
when the previous one returns.  The seed moves the initial packet (and
for honeycomb-run-2d the box) and never changes the amount of work.
An operation is one timed call into the program plus the checks on its
output; it fails when it raises or when any of its checks fails.

Timings are corrected for the speed of a shared host.  Every timed
repeat is followed by one run of the workload's twin: a fixed numpy and
scipy kernel (FFT pair, phase multiply, sqrt/cos/sin) on arrays of the
workload's own field shape.  A repeat's time is scaled by the twin's
reference time over the mean of the twin runs on either side of it, and
a timing is the lower quartile of the scaled repeats.  Load from other
tenants slows the program and its twin alike for seconds at a time; on
the 2-core test machine this cut the run-to-run spread of the timings
from 0.21-0.36 to under 0.07 (METRICS.md).  The detail record keeps the
raw repeats and the twin runs.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy.fft

from diracsplit import cli, integrators, potentials, propagators, snapshots
from diracsplit.experiments import asymptotic_rate
from diracsplit.fields import (SpinorField, current_density, error_norms,
                               mass, probability_density)
from diracsplit.grids import PeriodicGrid
from diracsplit.integrators import builtin_plan, evolve

MASS_DRIFT = 1e-12          # acceptance criterion 2
RATE_WINDOW = (3.7, 4.3)    # acceptance criteria 3 and 4
# Scalar observables of the default seed must match the values recorded
# from the seed commit to this tolerance, relative to max(|value|, 1);
# factor merging or fused kernels change them only at roundoff level.
OBSERVABLE_TOL = 1e-9
DEFAULT_SEED = 0
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())


class Ledger:
    """Operations attempted and failed, and the outcome of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self._op_ok = True

    def check(self, name, ok, detail=None):
        row = self.checks.setdefault(name, {"passed": 0, "failed": 0})
        if ok:
            row["passed"] += 1
        else:
            row["failed"] += 1
            row["last_failure"] = detail
            self._op_ok = False
        return ok

    @contextmanager
    def op(self):
        self.attempted += 1
        self._op_ok = True
        try:
            yield
        except Exception as exc:  # any exception is a failed operation
            self.check("no_exception", False, f"{type(exc).__name__}: {exc}")
        if not self._op_ok:
            self.failed += 1


def observables(field):
    """Mass, first moments of the density and the integrated current."""
    vol = field.grid.cell_volume
    rho = probability_density(field)
    out = {"mass": mass(field)}
    for axis, x in zip("xyz", field.grid.meshgrid()):
        out[f"moment_{axis}"] = vol * float(np.sum(x * rho))
    j = current_density(field)
    for k in range(j.shape[-1]):
        out[f"current_{k + 1}"] = vol * float(np.sum(j[..., k]))
    return out


def lower_quartile(walls):
    return statistics.quantiles(walls, n=4, method="inclusive")[0]


def gaussian_pair(grid, ncomp, shift):
    """exp(-|x - s|^2/2) and the same hump moved by +1 along x."""
    xs = [x - s for x, s in zip(grid.meshgrid(), shift)]
    r2 = sum(x * x for x in xs)
    data = np.zeros(grid.shape + (ncomp,), dtype=np.complex128)
    data[..., 0] = np.exp(-0.5 * r2)
    data[..., 1] = np.exp(-0.5 * (r2 - 2.0 * xs[0] + 1.0))
    return SpinorField(grid, data)


class Workload:
    """Shared parts: seeded inputs, mass and observable checks, probes."""

    name = ""
    scheme = ""          # the scheme the traced pass runs
    twin_reps = 1        # kernel passes per twin run
    twin_reference_s = 1.0   # a twin run's time on the quiet test machine

    def __init__(self, seed, smoke, workdir):
        self.seed = seed
        self.smoke = smoke
        self.workdir = Path(workdir)
        self.rng = np.random.default_rng(seed % 2**64)
        self.snapshot_bytes = 0
        self._twin_inputs = None

    def twin(self):
        """Wall time of one run of the fixed host-speed kernel."""
        if self._twin_inputs is None:
            rng = np.random.default_rng(2106)
            shape = self.grid.shape + (self.ncomp,)
            data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            phase = np.exp(1j * rng.standard_normal(self.grid.shape))[..., np.newaxis]
            self._twin_inputs = data, phase, tuple(range(self.grid.ndim))
        data, phase, axes = self._twin_inputs
        tic = time.perf_counter()
        for _ in range(self.twin_reps):
            out = scipy.fft.ifftn(scipy.fft.fftn(data, axes=axes) * phase, axes=axes)
            r = np.sqrt(out.real * out.real + 1.0)
            out = np.cos(r) * out + np.sin(r) * out
        return time.perf_counter() - tic

    def repeat(self, ops, seconds, ledger):
        """Run (name, op) pairs round-robin, at least 3 rounds and `seconds` long.

        op() returns its wall time.  Returns the lower quartile of each
        op's twin-scaled times, and the raw record.
        """
        deadline = time.perf_counter() + seconds
        scaled = {name: [] for name, _ in ops}
        raw = {name: [] for name, _ in ops}
        twins = [self.twin()]
        rounds = 0
        while rounds < 3 or time.perf_counter() < deadline:
            for name, op in ops:
                with ledger.op():
                    wall = op()
                    twins.append(self.twin())
                    raw[name].append(wall)
                    scaled[name].append(2.0 * wall * self.twin_reference_s
                                        / (twins[-2] + twins[-1]))
            rounds += 1
        timings = {name: lower_quartile(v) for name, v in scaled.items()}
        return timings, {"rounds": rounds, "samples_s": raw, "twin_s": twins}

    def check_mass(self, field, ledger):
        drift = abs(mass(field) / self.m0 - 1.0)
        ledger.check("mass_drift", drift <= MASS_DRIFT, drift)

    def check_observables(self, field, ledger):
        """Compare with the seed commit's values (default seed, full size)."""
        if self.smoke or self.seed != DEFAULT_SEED:
            return
        want = EXPECTED[self.name]
        got = observables(field)
        for key, value in want.items():
            err = abs(got[key] - value) / max(abs(value), 1.0)
            ledger.check("recorded_observables", err <= OBSERVABLE_TOL,
                         f"{key}: {got[key]!r} vs {value!r}")

    def targets(self):
        """(owner, attribute, span name) for every function the trace wraps."""
        model_cls = type(self.model)
        out = [
            (integrators, "step", "integrators.step"),
            (integrators, "kinetic_step", "propagators.kinetic_step"),
            (integrators, "potential_step", "propagators.potential_step"),
            (propagators, "to_modes", "grids.to_modes"),
            (propagators, "from_modes", "grids.from_modes"),
            (model_cls, "scalar", "potentials.scalar"),
            (cli, "load_config", "cli.load_config"),
        ]
        if not self.model.magnetic_zero:
            out.append((model_cls, "magnetic", "potentials.magnetic"))
        return out

    def prepare_trace(self, ledger):
        pass

    def trace_run(self, ledger):
        return self.timed_op(ledger)

    def probe(self, field):
        """Save the field and parse the workload's config once each.

        Library workloads make no snapshots or configs of their own; the
        traced pass still times both layers at this workload's size.
        """
        path = self.workdir / "probe.dspn"
        snapshots.write_snapshot(str(path), field, 0.0)
        self.snapshot_bytes = path.stat().st_size
        path.unlink()
        cfg = self.workdir / "probe.cfg"
        cfg.write_text(self.config_text())
        cli.load_config(str(cfg))

    def sizes(self):
        ncomp = self.ncomp
        points = int(np.prod(self.grid.shape))
        return {
            "field_bytes": 16 * ncomp * points,
            # 4 (two components) or 5 (four) complex per-mode arrays
            "kinetic_cache_entry_bytes": 16 * (4 if ncomp == 2 else 5) * points,
        }


class Ladder1D(Workload):
    """Work-precision ladder on the rational time-dependent 1D setup."""

    name = "ladder-1d"
    scheme = "s4c"
    twin_reps, twin_reference_s = 100, 0.015
    schemes = ("s4c", "s4", "s4rk")
    ncomp = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        if smoke:
            domain, points, self.t_max, self.tau_ref = (-32.0, 32.0), 256, 0.5, 2.0**-8
            self.taus, self.target = [2.0**-k for k in range(2, 9)], 1e-8
        else:
            domain, points, self.t_max, self.tau_ref = (-64.0, 64.0), 2048, 2.0, 2.0**-10
            self.taus, self.target = [2.0**-k for k in range(3, 11)], 1e-10
        self.grid = PeriodicGrid.line(domain[0], domain[1], points)
        self.model = potentials.TimeDependent1D()
        self.initial = gaussian_pair(self.grid, 2, [self.rng.uniform(-0.5, 0.5)])
        self.m0 = mass(self.initial)
        self.winners = {}

    def setup(self):
        self.reference = evolve(self.initial, 0.0, self.t_max, self.tau_ref,
                                builtin_plan("s4c"), self.model)
        for scheme in self.schemes:
            tau = self.taus[0]
            evolve(self.initial, 0.0, tau, tau, builtin_plan(scheme), self.model)

    def run(self, scheme, tau):
        plan = builtin_plan(scheme)
        tic = time.perf_counter()
        field = evolve(self.initial, 0.0, self.t_max, tau, plan, self.model)
        return time.perf_counter() - tic, round(self.t_max / tau), field

    def discover(self, scheme, ledger):
        """Run the ladder tau = 1/8, 1/16, ... until e_phi meets the target."""
        errors = []
        for k, tau in enumerate(self.taus):
            with ledger.op():
                _, _, field = self.run(scheme, tau)
                self.check_mass(field, ledger)
                errors.append(error_norms(field, self.reference).e_phi)
            if len(errors) <= k:
                break
            if errors[-1] <= self.target:
                self.winners[scheme] = tau
                break
        with ledger.op():
            ledger.check("reaches_target", scheme in self.winners,
                         f"{scheme}: e_phi {errors}")
            rate = asymptotic_rate(errors) if len(errors) >= 3 else float("nan")
            ledger.check("rate_in_window", RATE_WINDOW[0] <= rate <= RATE_WINDOW[1],
                         f"{scheme}: rate {rate}")
        return {"taus": self.taus[:len(errors)], "e_phi": errors, "rate": rate}

    def winning_run(self, scheme, ledger):
        wall, steps, field = self.run(scheme, self.winners[scheme])
        e = error_norms(field, self.reference).e_phi
        ledger.check("winning_rung_meets_target", e <= self.target, f"{scheme}: {e}")
        self.check_mass(field, ledger)
        return wall, steps, field

    def measure(self, seconds, ledger):
        deadline = time.perf_counter() + seconds
        with ledger.op():
            self.check_observables(self.reference, ledger)
        ladders = {s: self.discover(s, ledger) for s in self.schemes}
        ops = [(s, lambda s=s: self.winning_run(s, ledger)[0]) for s in self.schemes]
        tta, record = self.repeat(ops, deadline - time.perf_counter(), ledger)
        # one work-precision round: each scheme's winning rung once
        steps = sum(round(self.t_max / tau) for tau in self.winners.values())
        metrics = {"run_wall_s": sum(tta.values()),
                   "step_ms": 1e3 * sum(tta.values()) / steps}
        extra = {f"tta_{s}_s": v for s, v in tta.items()}
        extra.update(winning_tau=self.winners, steps_per_round=steps, ladders=ladders,
                     **record)
        return metrics, extra

    def prepare_trace(self, ledger):
        self.discover(self.scheme, ledger)

    def trace_run(self, ledger):
        return self.winning_run(self.scheme, ledger)

    def alloc_run(self):
        tau = self.taus[0]
        return evolve(self.initial, 0.0, self.t_max, tau, builtin_plan(self.scheme),
                      self.model)

    def targets(self):
        return super().targets() + [
            (integrators, "compact_potential_step",
             "propagators.compact_potential_step"),
            (snapshots, "write_snapshot", "snapshots.write_snapshot"),
        ]

    def config_text(self):
        (a,), (b,), (m,) = self.grid.lower, self.grid.upper, self.grid.points
        return (f"dimension = 1\ncomponents = 2\nscheme = {self.scheme}\n"
                f"grid.a = {a!r}\ngrid.b = {b!r}\ngrid.M = {m}\n"
                f"time.tau = {self.winners[self.scheme]!r}\n"
                f"time.t_max = {self.t_max!r}\npotential.kind = td1d\n")


class HoneycombRun(Workload):
    """`diracsplit run` in-process: rotating honeycomb with snapshots."""

    name = "honeycomb-run-2d"
    scheme = "s4c"
    twin_reps, twin_reference_s = 6, 0.045
    ncomp = 2

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        points, self.steps, self.stride = (32, 8, 4) if smoke else (256, 32, 4)
        self.tau = 1.0 / 64.0
        offset = self.rng.uniform(-0.5, 0.5, size=2)
        self.grid = PeriodicGrid.box([(-8.0 + o, 8.0 + o, points) for o in offset])
        self.model = potentials.Honeycomb2D(case=2)
        self.prefix = self.workdir / "hc"
        self.config = self.workdir / "honeycomb.cfg"
        self.config.write_text(self.config_text())

    def config_text(self):
        a0, a1 = self.grid.lower
        b0, b1 = self.grid.upper
        m0, m1 = self.grid.points
        return (f"dimension = 2\ncomponents = 2\nscheme = {self.scheme}\n"
                f"grid.a = {a0!r}, {a1!r}\ngrid.b = {b0!r}, {b1!r}\n"
                f"grid.M = {m0}, {m1}\ntime.tau = {self.tau!r}\n"
                f"time.t_max = {self.steps * self.tau!r}\n"
                f"potential.kind = honeycomb\npotential.case = 2\n"
                f"output.prefix = {self.prefix}\noutput.stride = {self.stride}\n")

    def run(self):
        tic = time.perf_counter()
        code = cli.main(["run", str(self.config)])
        return time.perf_counter() - tic, self.steps, code

    def verify(self, code, ledger):
        """Check the run's summary and snapshots, then delete them."""
        summary_path = Path(f"{self.prefix}_summary.json")
        try:
            ledger.check("exit_code", code == 0, code)
            summary = json.loads(summary_path.read_text())
            files = [s["file"] for s in summary["snapshots"]]
            want = self.steps // self.stride + 1
            ledger.check("snapshot_count", len(files) == want, f"{len(files)} != {want}")
            _, first = snapshots.read_snapshot_field(files[0], self.grid)
            _, last = snapshots.read_snapshot_field(files[-1], self.grid)
            m_last = mass(last)
            err = abs(m_last / summary["final_mass"] - 1.0)
            ledger.check("last_snapshot_mass", err <= 1e-14, err)
            drift = abs(m_last / mass(first) - 1.0)
            ledger.check("mass_drift", drift <= MASS_DRIFT, drift)
            ledger.check("summary_mass_drift", summary["mass_drift"] <= MASS_DRIFT,
                         summary["mass_drift"])
            self.check_observables(last, ledger)
            self.snapshot_bytes = Path(files[-1]).stat().st_size
        finally:
            for path in self.workdir.glob("hc_*"):
                path.unlink()

    def timed_op(self, ledger):
        wall, steps, code = self.run()
        self.verify(code, ledger)
        return wall, steps, None

    def setup(self):
        self.timed_op(Ledger())

    def measure(self, seconds, ledger):
        timings, record = self.repeat(
            [("run", lambda: self.timed_op(ledger)[0])], seconds, ledger)
        wall = timings["run"]
        metrics = {"run_wall_s": wall, "step_ms": 1e3 * wall / self.steps}
        return metrics, dict(record, steps_per_run=self.steps,
                             snapshots_per_run=self.steps // self.stride + 1)

    def alloc_run(self):
        code = self.run()[2]
        for path in self.workdir.glob("hc_*"):
            path.unlink()
        return code

    def targets(self):
        return super().targets() + [
            (integrators, "compact_potential_step",
             "propagators.compact_potential_step"),
            # the compact step delegates here when A = 0
            (propagators, "potential_step", "propagators.potential_step.inner"),
            (cli, "write_snapshot", "snapshots.write_snapshot"),
            (cli, "cmd_run", "cli.cmd_run"),
        ]


class Magnetic3D(Workload):
    """Library evolve, 4 components in 3D, trap plus time-dependent uniform B."""

    name = "magnetic-3d"
    scheme = "s4"   # s4c raises UnsupportedCommutatorTransport for A != 0 in 3D
    twin_reps, twin_reference_s = 1, 0.085
    ncomp = 4
    V_EXPR = "0.05*(x^2 + y^2 + z^2)"
    A_EXPRS = ("-0.5*(1 + 0.5*sin(t))*y", "0.5*(1 + 0.5*sin(t))*x")

    def __init__(self, seed, smoke, workdir):
        super().__init__(seed, smoke, workdir)
        points = 16 if smoke else 64
        self.tau, self.steps = 1.0 / 32.0, 2
        self.grid = PeriodicGrid.box([(-8.0, 8.0, points)] * 3)
        self.model = potentials.CustomPotential(v_expr=self.V_EXPR,
                                                a_exprs=self.A_EXPRS)
        self.initial = gaussian_pair(self.grid, 4, self.rng.uniform(-0.5, 0.5, size=3))
        self.m0 = mass(self.initial)
        self.plan = builtin_plan(self.scheme)

    def run(self):
        tic = time.perf_counter()
        field = evolve(self.initial, 0.0, self.steps * self.tau, self.tau,
                       self.plan, self.model)
        return time.perf_counter() - tic, self.steps, field

    def setup(self):
        self.run()

    def timed_op(self, ledger):
        wall, steps, field = self.run()
        self.check_mass(field, ledger)
        return wall, steps, field

    def measure(self, seconds, ledger):
        with ledger.op():
            self.check_observables(self.run()[2], ledger)
        timings, record = self.repeat(
            [("segment", lambda: self.timed_op(ledger)[0])], seconds, ledger)
        wall = timings["segment"]
        metrics = {"run_wall_s": wall, "step_ms": 1e3 * wall / self.steps}
        return metrics, dict(record, steps_per_segment=self.steps)

    def alloc_run(self):
        return self.run()[2]

    def targets(self):
        return super().targets() + [
            (snapshots, "write_snapshot", "snapshots.write_snapshot"),
        ]

    def config_text(self):
        return (f"dimension = 3\ncomponents = 4\nscheme = {self.scheme}\n"
                f"grid.a = -8\ngrid.b = 8\ngrid.M = {self.grid.points[0]}\n"
                f"time.tau = {self.tau!r}\n"
                f"time.t_max = {self.steps * self.tau!r}\n"
                f"potential.kind = custom\npotential.V_expr = {self.V_EXPR}\n"
                f"potential.A1_expr = {self.A_EXPRS[0]}\n"
                f"potential.A2_expr = {self.A_EXPRS[1]}\n")


WORKLOADS = {w.name: w for w in (Ladder1D, HoneycombRun, Magnetic3D)}
