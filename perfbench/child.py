"""One workload in its own process: set-up only, timed run, or traced pass.

Started by run.py with the thread variables pinned and the checkout's
src/ on PYTHONPATH; prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("DIRACSPLIT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def llc_bytes():
    """Last-level cache size as the kernel reports it, or None."""
    path = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    try:
        text = path.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG")) * scale


def environment(workload):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_vars": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "seed": workload.seed,
        "smoke": workload.smoke,
        "llc_bytes_reported": llc_bytes(),
        **workload.sizes(),
    }


def alloc_pass(workload):
    """tracemalloc over one operation on cold caches.

    Returns the largest allocation peak inside one step and the numpy
    bytes still held once the operation's result is dropped (the caches).
    """
    import numpy as np
    from diracsplit import integrators

    original = integrators.step
    peaks = []

    def step(*args, **kwargs):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - start)

    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]

    def numpy_bytes():
        snap = tracemalloc.take_snapshot().filter_traces(numpy_only)
        return sum(stat.size for stat in snap.statistics("filename"))

    gc.collect()
    tracemalloc.start()
    try:
        before = numpy_bytes()
        integrators.step = step
        try:
            out = workload.alloc_run()
        finally:
            integrators.step = original
        del out
        gc.collect()
        retained = numpy_bytes() - before
    finally:
        tracemalloc.stop()
    return max(peaks), retained


def trace_pass(workload, seconds, ledger, alloc):
    """Alternate untraced and traced operations; derive the layer split."""
    from diracsplit.integrators import KINETIC, builtin_plan
    from tracing import Recorder
    from workloads import lower_quartile

    workload.prepare_trace(ledger)
    recorder = Recorder()
    targets = workload.targets()
    plain, traced, steps = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        with ledger.op():
            plain.append(workload.trace_run(ledger)[0])
        with ledger.op():
            with recorder.installed(targets):
                wall, n, field = workload.trace_run(ledger)
                traced.append(wall)
                steps += n
                if field is not None:
                    workload.probe(field)
    totals = recorder.totals()

    def calls(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    fft = ("grids.to_modes", "grids.from_modes")
    pot = ("propagators.potential_step", "propagators.compact_potential_step")
    pot_self = pot + ("propagators.potential_step.inner",)
    model = ("potentials.scalar", "potentials.magnetic")
    plan = builtin_plan(workload.scheme)
    kin_per_step = sum(f.kind == KINETIC for f in plan.factors)
    pot_per_step = len(plan.factors) - kin_per_step
    with ledger.op():
        for _, _, name in targets:
            ledger.check("trace.span_fired", name in totals, name)
        ledger.check("trace.step_calls", calls("integrators.step") == steps,
                     calls("integrators.step"))
        ledger.check("trace.kinetic_calls_match_plan",
                     calls("propagators.kinetic_step") == kin_per_step * steps,
                     calls("propagators.kinetic_step"))
        ledger.check("trace.potential_calls_match_plan",
                     calls(*pot) == pot_per_step * steps, calls(*pot))
        ledger.check("trace.fft_calls_match_plan",
                     calls(*fft) == 2 * kin_per_step * steps, calls(*fft))
    peak, retained = alloc
    field_bytes = workload.sizes()["field_bytes"]
    write_calls = calls("snapshots.write_snapshot")
    mib = 1024.0**2
    metrics = {
        "grids.fft_calls_per_step": calls(*fft) / steps,
        "grids.fft_ms_per_step": 1e3 * self_s(*fft) / steps,
        "propagators.kinetic_calls_per_step": calls("propagators.kinetic_step") / steps,
        "propagators.kinetic_ms_per_step": 1e3 * self_s("propagators.kinetic_step") / steps,
        "propagators.potential_calls_per_step": calls(*pot) / steps,
        "propagators.potential_ms_per_step": 1e3 * self_s(*pot_self) / steps,
        # computed: input field read plus output field written per call
        "propagators.potential_gbps": 2 * field_bytes * calls(*pot) / self_s(*pot_self) / 1e9,
        "potentials.eval_calls_per_step": calls(*model) / steps,
        "potentials.eval_ms_per_step": 1e3 * self_s(*model) / steps,
        "integrators.self_ms_per_step": 1e3 * self_s("integrators.step") / steps,
        "integrators.step_peak_alloc_mb": peak / mib,
        "propagators.retained_mb": retained / mib,
        "snapshots.write_ms": 1e3 * self_s("snapshots.write_snapshot") / write_calls,
        "snapshots.mb_written": workload.snapshot_bytes / mib,
        "cli.config_ms": 1e3 * self_s("cli.load_config") / calls("cli.load_config"),
        "trace.overhead_frac": lower_quartile(traced) / lower_quartile(plain) - 1.0,
    }
    extra = {
        "traced_ops": len(traced),
        "untraced_ops": len(plain),
        "traced_steps": steps,
        "scheme": workload.scheme,
        "bandwidth": "computed: 2 x field bytes per potential call over its self "
                     "time; no roofline ratio, a >= 4 x LLC probe does not fit",
        "spans": {name: {"calls": c, "total_ms": 1e3 * t, "self_ms": 1e3 * s}
                  for name, (c, t, s) in sorted(totals.items())},
    }
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--phase", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import diracsplit
    src = Path.cwd().resolve() / "src"
    if src not in Path(diracsplit.__file__).resolve().parents:
        sys.exit(f"diracsplit imported from {diracsplit.__file__}, not from {src}")
    from workloads import WORKLOADS, Ledger

    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    ledger = Ledger()
    if args.phase == "trace":
        alloc = alloc_pass(workload)
    workload.setup()
    setup_raw_s = time.perf_counter() - args.t_spawn
    twin_s = sum(workload.twin() for _ in range(3)) / 3
    result = {"setup_s": setup_raw_s * workload.twin_reference_s / twin_s,
              "setup_raw_s": setup_raw_s}
    if args.phase != "setup":
        if args.phase == "trace":
            metrics, extra = trace_pass(workload, args.seconds, ledger, alloc)
        else:
            metrics, extra = workload.measure(args.seconds, ledger)
        result.update(
            metrics=metrics, extra=extra, attempted=ledger.attempted,
            failed=ledger.failed, checks=ledger.checks, env=environment(workload),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
