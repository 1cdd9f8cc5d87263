"""One benchmark process: ``setup`` measures set-up time, ``run`` runs a workload.

Started by run.py, which fixes the environment (source path, BLAS threads).
Nothing but the standard library is imported before the set-up clock
starts, so set-up time includes numpy and scipy as ``import fermichain``
pulls them in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_TIMED_WALL_S = 100.0   # stop early rather than run past the caller's limit


def measure_setup(workload: str, seed: int, run_dir: Path) -> dict:
    t0 = time.perf_counter()
    import fermichain
    import workloads
    wl = workloads.WORKLOADS[workload](seed, run_dir)
    wl.setup(fermichain)
    return {"setup_s": time.perf_counter() - t0}


def run_op(wl, op, tracer=None, op_id=0) -> dict:
    """Prepare, time and check one op; the check is outside the timed region."""
    cache = wl.fc.wkb._scan_regions.cache_info
    ctx = wl.prepare(op)
    c0 = cache()
    if tracer is not None:
        tracer.op = op_id
    error = None
    t0 = time.perf_counter()
    try:
        result = wl.execute(op, ctx)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"raised {type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = -1
    c1 = cache()
    known = False
    if error is None:
        try:
            failures, known = wl.check(op, ctx, result)
        except Exception as exc:
            failures = [f"check raised {type(exc).__name__}: {exc}"]
    else:
        failures = [error]
    known = known or bool(failures) and wl.known_defect(op, ctx)
    files, nbytes = wl.written(ctx)
    return {"s": dt, "failures": failures, "known": known, "hits": c1.hits - c0.hits,
            "misses": c1.misses - c0.misses, "files": files, "bytes": nbytes}


def run_ops(wl, ops, tracer=None) -> list[dict]:
    return [run_op(wl, op, tracer, i + 1) for i, op in enumerate(ops)]


def timed_rounds(wl, seconds: float) -> tuple[list[dict], list[dict]]:
    """Whole rounds until the op time reaches ``seconds``."""
    ops, records, busy, k = [], [], 0.0, 0
    wall0 = time.perf_counter()
    while busy < seconds and time.perf_counter() - wall0 < MAX_TIMED_WALL_S:
        for op in wl.round(k):
            rec = run_op(wl, op)
            ops.append(op)
            records.append(rec)
            busy += rec["s"]
        k += 1
    return ops, records


def environment(np, scipy) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass

    def cache_size(index):
        try:
            return Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size").read_text().strip()
        except OSError:
            return None

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2": cache_size(2),     # per core
        "l3": cache_size(3),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics of a traced run (see README.md for their meaning)."""
    from tracer import LAYERS

    every = tracer.summary(first_op=0)      # set-up and ops
    ops = tracer.summary(first_op=1)        # ops only
    out = {}
    for name in every.names:
        calls, ms, self_ms = every.stats(name)
        out[f"{name}.calls"] = calls
        out[f"{name}.ms"] = ms
        out[f"{name}.self_ms"] = self_ms
    inv = every.stats("wkb.invert_filling")[0]
    out["wkb.invert_filling.ff_per_call"] = (
        every.child_calls("wkb.invert_filling", "wkb.filling_fraction") / inv if inv else 0.0)
    hits = sum(r["hits"] for r in traced)
    misses = sum(r["misses"] for r in traced)
    out["wkb.scan_cache.hits"] = hits
    out["wkb.scan_cache.misses"] = misses
    out["wkb.scan_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["exact.modes_bytes"] = tracer.modes_bytes
    out["cli.files_written"] = sum(r["files"] for r in traced)
    out["cli.bytes_written"] = sum(r["bytes"] for r in traced)
    for layer in LAYERS:
        out[f"{layer}.layer.self_ms"] = ops.layer_self_ms(layer)
    wall = 1e3 * sum(r["s"] for r in traced)
    base = 1e3 * sum(r["s"] for r in untraced)
    out["bench.op_wall.ms"] = wall
    out["bench.untraced.ms"] = wall - 1e3 * ops.root_time
    out["bench.trace_overhead.pct"] = 100.0 * (wall - base) / base
    out["bench.traced_ops.count"] = len(traced)
    out["bench.spans.count"] = tracer.num_spans
    return out


def run(args) -> dict:
    import numpy as np
    import scipy

    import fermichain
    import workloads
    from tracer import Tracer

    run_dir = Path(args.run_dir)
    wl = workloads.WORKLOADS[args.workload](args.seed, run_dir)
    # Warm-up on its own profile objects, so no cache entry reaches the timed ops.
    wl.setup(fermichain)
    run_op(wl, wl.round(0)[0])
    result = {"workload": wl.name, "seed": args.seed, "op_list_sha256": wl.op_list_hash(),
              "environment": environment(np, scipy)}
    if not args.trace:
        wl.setup(fermichain)
        ops, records = timed_rounds(wl, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        ops = [op for k in range(wl.trace_rounds) for op in wl.round(k)]
        wl.setup(fermichain)
        untraced = run_ops(wl, ops)
        tracer = Tracer()
        tracer.install(fermichain)
        try:
            tracer.op = 0
            wl.setup(fermichain)
            tracer.op = -1
            records = run_ops(wl, ops, tracer)
        finally:
            tracer.uninstall()
        result["per_layer"] = layer_metrics(tracer, records, untraced)
        tracer.save(run_dir / f"spans-{wl.name}.npz")
        ops, records = ops + ops, untraced + records
    result["ops"] = [{**op, "ms": 1e3 * r["s"], "failures": r["failures"], "known": r["known"]}
                     for op, r in zip(ops, records)]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", help="where run mode writes its JSON result")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.mode == "setup":
        print(json.dumps(measure_setup(args.workload, args.seed, Path(args.run_dir))))
        return 0
    Path(args.result).write_text(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
