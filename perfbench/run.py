"""fermichain benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (catalog, exact-large, wkb-sweep, kernel) as a closed
loop: one caller in one process sends the next op when the previous one
returns.  Every op's result is checked.  With ``--trace 0`` it prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
run; the names and units are those of BENCHMARK.json.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Details of each run (environment, every op, the
failures) go to .perfbench-run/ at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench-run"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
BLAS_THREADS = "1"     # fixed, at most nproc; recorded in the environment
WORKER_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CHAIN_NUM_THREADS", None)      # reproduce runs its targets serially
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def setup_seconds(workload: str, seed: int, env: dict) -> list[float]:
    """Set-up time in fresh processes; the first one only warms file caches."""
    out = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, str(WORKER), "setup", "--workload", workload,
             "--seed", str(seed), "--run-dir", str(RUN_DIR)],
            env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        if i:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "fermichain" / "__init__.py").is_file():
        print(f"fermichain sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    env = worker_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = RUN_DIR / f"{tag}.json"
    with open(RUN_DIR / f"{tag}.log", "w") as log:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--run-dir", str(RUN_DIR),
             "--result", str(result_path)],
            env=env, stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"workload process failed (exit {proc.returncode}); see {log.name}",
              file=sys.stderr)
        return 1
    res = json.loads(result_path.read_text())

    ops = res["ops"]
    attempted = len(ops)
    failed_ops = [op for op in ops if op["failures"]]
    unexpected = [op for op in failed_ops if not op["known"]]
    env_rec = res["environment"]
    print(f"workload {args.workload}  seed {args.seed}  op list sha256 {res['op_list_sha256']}")
    print("environment " + json.dumps(env_rec))
    print(f"fail_frac {len(failed_ops) / attempted:.4f} ({len(failed_ops)}/{attempted} ops; "
          f"{len(failed_ops) - len(unexpected)} known defect)")
    for op in failed_ops:
        inputs = {k: v for k, v in op.items() if k not in ("ms", "failures", "known")}
        label = "known defect" if op["known"] else "FAILED"
        print(f"  {label}: {json.dumps(inputs)}: {'; '.join(op['failures'])}")

    if args.trace:
        sections = spec["per_layer"]
        values = res["per_layer"]
    else:
        sections = spec["end_to_end"]
        ms = [op["ms"] for op in ops]
        setups = setup_seconds(args.workload, args.seed, env)
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": 1e3 * len(ms) / sum(ms),
            "op_p50_ms": float(np.percentile(ms, 50)),
            "op_p90_ms": float(np.percentile(ms, 90)),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        samples = {"setup_s": len(setups)}
    metrics = {}
    for m in sections:
        if m["name"] not in values:
            print(f"metric {m['name']} not produced", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if not args.trace:
            n = samples.get(m["name"], attempted)
            note = ""
            if m["name"] == "op_p90_ms" and n < 100:
                note = "  (fewer than 10 samples above p90)"
            print(f"{m['name']:<14} {values[m['name']]:.6g} {m['unit']}  n={n}{note}")
        else:
            note = "  (computed: 8 N^2 per diagonalize call)" \
                if m["name"] == "exact.modes_bytes" else ""
            print(f"{m['name']:<48} {values[m['name']]:.6g} {m['unit']}{note}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": len(failed_ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
