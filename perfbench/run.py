"""diracsplit benchmark: one workload per call, each in fresh child processes.

Run from the repository root:

    python3 perfbench/run.py --workload ladder-1d --seed 0 --seconds 25 --trace 0

--trace 0 runs the timed, untraced workload and prints every end-to-end
metric; --trace 1 runs the separate traced pass and prints every
per-layer metric.  --workload all runs the three workloads in turn and
prints a table.  --smoke shrinks every grid so the harness itself can be
checked in seconds.  The line before the last holds the details:
environment, every check, and per-workload figures such as the
time to accuracy of each scheme on ladder-1d.  The last line is the
result: {"correct", "attempted", "failed", "metrics"}.

Children run single-threaded: DIRACSPLIT_THREADS is left unset and the
BLAS/OpenMP thread variables are pinned to 1.  setup_s is the median of
five children's times from spawn to their first timed operation; four
of them only set up.  Like every timing it is corrected for host speed
(see workloads.py and METRICS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env.pop("DIRACSPLIT_THREADS", None)
    env.update({var: "1" for var in PINNED})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(root, workdir, phase, args, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left to start the {phase} child")
    cmd += ["--t-spawn", repr(time.perf_counter())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} child of {args.workload} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{phase} child of {args.workload} exited with "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(root, args, spec):
    """Run one workload; returns (details, result) as printed."""
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    try:
        if args.trace:
            res = spawn(root, workdir, "trace", args, deadline)
            metrics = res["metrics"]
            setups = [res]
        else:
            setups = [spawn(root, workdir, "setup", args, deadline)
                      for _ in range(SETUP_RUNS - 1)]
            res = spawn(root, workdir, "measure", args, deadline)
            setups.append(res)
            metrics = dict(res["metrics"],
                           setup_s=statistics.median(r["setup_s"] for r in setups),
                           peak_rss_mb=res["peak_rss_mb"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json "
                         f"{kind} {sorted(units)}")
    details = {"workload": args.workload, "trace": args.trace,
               "setup_s": [r["setup_s"] for r in setups],
               "setup_raw_s": [r["setup_raw_s"] for r in setups],
               "env": res["env"], "checks": res["checks"],
               "extra": res["extra"]}
    result = {
        "correct": res["failed"] == 0 and res["attempted"] > 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    return details, result


def run_all(root, args, spec):
    """Every workload in turn, as a table; the last line sums the outcomes."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        details, result = run_workload(
            root, argparse.Namespace(**dict(vars(args), workload=workload)), spec)
        rows = {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}
        rows.update({name: (value, "s") for name, value in details["extra"].items()
                     if name.startswith("tta_")})
        for name, (value, unit) in rows.items():
            print(f"{workload:<18} {name:<38} {value:14.6g} {unit}")
            total["metrics"][f"{workload}/{name}"] = {"value": value, "unit": unit}
        print(f"{workload:<18} attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids, to check the harness itself")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "diracsplit" / "__init__.py").is_file():
            raise BenchError(f"no src/diracsplit under {root}; run from the "
                             "root of a diracsplit checkout")
        spec = json.loads((root / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            print(json.dumps(run_all(root, args, spec)))
            return 0
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from "
                             f"{names} or all")
        details, result = run_workload(root, args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
