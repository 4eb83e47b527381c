"""Benchmark of perisolve, end to end and layer by layer.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The program is run from `src/` there, with
one BLAS thread per process.  Every unit of a workload runs in a fresh
interpreter (bench/child.py), so imports count as they do for users.

With --trace 0 the run first starts SETUP_SAMPLES interpreters that only
build the inputs, then runs whole rounds of the workload until --seconds
have passed (at least one round), and reports medians over the rounds:

    setup_s      fresh interpreter to ready inputs (median over every
                 interpreter the run started)
    solve_s      wall time of the round's solve work
    cpu_s        CPU time of the round's processes, workers included
    peak_rss_mb  largest peak resident set of one of the round's processes

With --trace 1 it runs one round with the per-layer wrappers of
bench/tracer.py installed and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COUNT, SECONDS, RATIO = "count", "s", "ratio"
PER_LAYER = {
    "discretize.calls": COUNT, "discretize.self_s": SECONDS,
    "convexcore.calls": COUNT, "convexcore.self_s": SECONDS,
    "variational.minimize_calls": COUNT, "variational.newton_steps": COUNT,
    "variational.newton_per_minimize": RATIO, "variational.factor_solves": COUNT,
    "variational.factor_solve_s": SECONDS, "variational.self_s": SECONDS,
    "variational.minimize_unconverged": COUNT, "variational.line_search_failures": COUNT,
    "cascade.fixed_point_stages": COUNT, "cascade.beta_evals": COUNT,
    "cascade.beta_per_stage": RATIO, "cascade.self_s": SECONDS,
    "cascade.stages_unconverged": COUNT, "cascade.omega_halvings": COUNT,
    "verify.base_solve_s": SECONDS, "verify.fanout_wall_s": SECONDS,
    "verify.worker_cpu_s": SECONDS, "verify.parallel_efficiency": RATIO,
    "cli.load_config_s": SECONDS, "cli.write_s": SECONDS, "cli.output_bytes": "bytes",
    "traced.solve_s": SECONDS,
}
# ratios of sums over a round's units
RATIOS = {
    "variational.newton_per_minimize": ("variational.newton_steps", "variational.minimize_calls"),
    "cascade.beta_per_stage": ("cascade.beta_evals", "cascade.fixed_point_stages"),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, unit: str, mode: str, trace: bool, deadline: float) -> dict:
    """Run one child; return its JSON result plus setup_s, cpu_s and maxrss_kb.

    The child is reaped with wait4, whose resource usage covers the child and
    every process it waited for, such as its Mosco workers.
    """
    cmd = [sys.executable, str(BENCH / "child.py"), workload, unit, mode, "1" if trace else "0"]
    out_path, err_path = OUT / "child.stdout", OUT / "child.stderr"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err,
                                start_new_session=True)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return {"failed": f"{workload}/{unit} ran out of time"}
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out_path.read_text().strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err_path.read_text().strip().splitlines()[-3:]
        return {"failed": f"{workload}/{unit} exit {proc.returncode}: " + " | ".join(tail)}
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - t_spawn
    res["cpu_s"] = usage.ru_utime + usage.ru_stime
    res["maxrss_kb"] = usage.ru_maxrss
    return res


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run the set-up samples and the rounds; return the result object."""
    start = time.perf_counter()
    deadline = start + CHILD_TIMEOUT_S
    units = list(WORKLOADS[workload].units)
    random.Random(seed).shuffle(units)
    setups, rounds, failures = [], [], []
    attempted = wrong = 0
    if not trace:
        for _ in range(SETUP_SAMPLES):
            res = run_child(workload, units[0], "setup", False, deadline)
            if "failed" in res:
                raise BenchError(res["failed"])
            setups.append(res["setup_s"])
    t_rounds = time.perf_counter()
    while not rounds or (not trace and time.perf_counter() - t_rounds < seconds):
        results = []
        for unit in units:
            attempted += 1
            res = run_child(workload, unit, "solve", trace, deadline)
            if "failed" not in res and not res["ok"]:
                wrong += 1
                res["failed"] = f"{workload}/{unit} check failed: {json.dumps(res['info'])}"
            if "failed" in res:
                failures.append(res["failed"])
                continue
            setups.append(res["setup_s"])
            results.append(res)
            print(f"{workload}/{unit}: setup {res['setup_s']:.3f} s, solve "
                  f"{res['solve_s']:.3f} s, cpu {res['cpu_s']:.3f} s, "
                  f"{json.dumps(res['info'])}", flush=True)
        rounds.append(results)

    for msg in failures:
        print("FAILED " + msg, flush=True)
    done = [r for r in rounds if len(r) == len(units)]
    if trace:
        metrics = traced_metrics(done)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "solve_s": (statistics.median(sum(r["solve_s"] for r in rd) for rd in done), "s"),
            "cpu_s": (statistics.median(sum(r["cpu_s"] for r in rd) for rd in done), "s"),
            "peak_rss_mb": (statistics.median(max(r["maxrss_kb"] for r in rd) / 1024.0
                                              for rd in done), "MB"),
        } if done else {}
    print(f"{workload}: {len(rounds)} round(s), {attempted} attempted, {len(failures)} failed, "
          f"{len(setups)} set-up samples, {time.perf_counter() - start:.1f} s", flush=True)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_metrics(done: list) -> dict:
    """Sum the units' per-layer metrics of the traced round."""
    total = dict.fromkeys(PER_LAYER, 0.0)
    for rd in done:
        for res in rd:
            for k, v in res["metrics"].items():
                total[k] += v
    for k, (num, den) in RATIOS.items():
        total[k] = total[num] / total[den] if total[den] else 0.0
    return {k: (total[k] if unit in (SECONDS, RATIO) else int(total[k]), unit)
            for k, unit in PER_LAYER.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "perisolve" / "__init__.py").is_file():
        print(f"no perisolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if not result["metrics"]:
        print("no round completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
