"""One unit of a workload in a fresh interpreter.

    python3 bench/child.py <workload> <unit> <setup|solve> <trace 0|1>

Builds the unit's inputs and prints, as its last line, a JSON object with
`ready` (the monotonic clock when the inputs were ready; the parent subtracts
the time it started this process) and, for `solve`, the solve time, the
check verdict and, with tracing, the per-layer metrics.  The monotonic clock
is system-wide, so the two processes' readings compare directly.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def run(workload: str, unit: str, mode: str, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload]
    st = wl.setup(unit)
    out = {"ready": time.perf_counter()}
    if mode == "setup":
        return out

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    result = wl.solve(st)
    out["solve_s"] = time.perf_counter() - t0
    worker_cpu = _children_cpu() - cpu0
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
        metrics["traced.solve_s"] = out["solve_s"]
        if hasattr(wl, "fanout_metrics"):
            metrics.update(wl.fanout_metrics(out["solve_s"], metrics, worker_cpu))
        out["metrics"] = metrics

    ok, info = wl.check(st, result)
    if tracer is not None:
        if "output_bytes" in info:
            out["metrics"]["cli.output_bytes"] = info["output_bytes"]
        if hasattr(wl, "self_check"):
            held, extra = wl.self_check(st, out["metrics"])
            info.update(extra, self_check=held)
            ok = ok and held
    out["ok"] = bool(ok)
    out["info"] = info
    return out


def main() -> int:
    workload, unit, mode, trace = sys.argv[1:5]
    try:
        out = run(workload, unit, mode, trace == "1")
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(out, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main())
