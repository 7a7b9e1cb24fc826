"""kspp benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload interacting_swarm --seed 0 \
        --seconds 40 --trace 0

Each iteration of a workload runs in a fresh interpreter (pipeline.py), so
it meets the cold caches a CLI invocation meets. Iterations repeat while
the next one is expected to end within --seconds; every metric is the
median over the iterations, with times scaled by the speed probe
(pipeline.PROBE_REF_S).

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced iterations, prints the per-layer metrics of the traced ones and
reports the tracing overhead as the difference of their median wall times.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The full record, with provenance, every
iteration and every span, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pipeline import (OUT_DIR, PER_LAYER, PROBE_REF_S, ROOT, SEED_POOL,
                      WORKLOADS)

PIPELINE = Path(__file__).resolve().parent / "pipeline.py"
# an iteration that overruns this is killed, so a run ends well within
# --seconds plus this
ITERATION_TIMEOUT_S = 120.0

END_TO_END = {  # name -> unit
    "wall_s": "s", "setup_s": "s", "simulate_s": "s", "estimate_s": "s",
    "peak_rss_mb": "MB",
}
# stages that exist on one workload only; a metric must never be 0, so
# these are printed in the table but not emitted as metrics
TABLE_ONLY = {"io_s": "s", "threshold_s": "s"}
LAYER_UNITS = {"_s": "s", "_per_s": "1/s", "_mb_per_s": "MB/s",
               "_bytes": "B", "_bytes_max": "B"}

# one process uses one thread: the replica loop and BLAS/OpenMP pools
THREAD_ENV = {"KSPP_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CACHE_POLICY = ("each iteration is a fresh interpreter: import kspp, "
                "constants._c0_cached and first-call costs are cold in every "
                "iteration, as in one CLI invocation")


def layer_unit(name: str) -> str:
    for suffix in sorted(LAYER_UNITS, key=len, reverse=True):
        if name.endswith(suffix):
            return LAYER_UNITS[suffix]
    return "count"


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def scaled(it: dict) -> dict:
    """One iteration's metrics with times at the reference CPU speed.

    Times are multiplied, and rates divided, by PROBE_REF_S / probe_s:
    the probe ran in the same process just before and after the pipeline.
    """
    k = PROBE_REF_S / it["probe_s"]
    out = {"wall_s": it["wall_s"] * k, "setup_s": it["setup_s"] * k,
           "peak_rss_mb": it["peak_rss_mb"]}
    for stage in ("simulate", "estimate", "io", "threshold"):
        out[f"{stage}_s"] = it["stage_s"].get(stage, 0.0) * k
    for name, value in (it["layers"] or {}).items():
        unit = layer_unit(name)
        out[name] = (value * k if unit == "s"
                     else value / k if unit.endswith("/s") else value)
    return out


def run_iteration(workload: str, seed: int, size: str, traced: bool) -> dict:
    """One pipeline iteration in a fresh interpreter, with its set-up time."""
    cmd = [sys.executable, str(PIPELINE), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(int(traced))]
    env = dict(os.environ, **THREAD_ENV)
    start = time.perf_counter()
    deadline = start + ITERATION_TIMEOUT_S
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], ITERATION_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"{workload}: iteration did not start: {line!r}")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: iteration exited {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    return result


def run_workload(workload: str, seed: int, seconds: float, size: str,
                 trace: bool) -> dict:
    """Iterate one workload for `seconds` and summarise it."""
    iterations: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 0
        t0 = time.perf_counter()
        iterations.append(run_iteration(workload, seed, size, traced))
        durations.append(time.perf_counter() - t0)
        # stop before an iteration that would end past the deadline; a
        # traced run needs one traced and one untraced iteration
        done = time.perf_counter() - start + statistics.median(durations)
        if done > seconds and len(iterations) >= 1 + trace:
            break

    first = iterations[0]
    checks = [c for it in iterations for c in it["checks"]]
    for it in iterations[1:]:
        same = it["digest"] == first["digest"] and it["values"] == first["values"]
        checks.append({"name": "rerun_identical", "ok": same,
                       "detail": "positions and estimates equal iteration 0"})
    attempted = sum(it["ops"] for it in iterations) + len(iterations) - 1
    failed = (sum(it["ops_failed"] for it in iterations)
              + sum(not c["ok"] for c in checks if c["name"] == "rerun_identical"))

    plain = [scaled(it) for it in iterations if not it["traced"]]
    traced_its = [scaled(it) for it in iterations if it["traced"]]
    e2e = {name: summary([it[name] for it in plain])
           for name in (*END_TO_END, *TABLE_ONLY)}
    layers = {}
    if trace:
        layers = {name: summary([it[name] for it in traced_its])
                  for name in PER_LAYER}
        layers["trace.overhead_s"] = {
            "median": (statistics.median(it["wall_s"] for it in traced_its)
                       - statistics.median(it["wall_s"] for it in plain)),
            "n": len(traced_its) + len(plain)}
        layers["trace.spans"] = summary([len(it["spans"]) for it in iterations
                                         if it["traced"]])
    layers["host.probe_s"] = summary([it["probe_s"] for it in iterations])
    return {
        "workload": workload, "seed": seed, "sim_seed": first["sim_seed"],
        "size": size, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_checks": [c for c in checks if not c["ok"]],
        "check_names": sorted({c["name"] for c in checks}),
        "end_to_end": e2e, "layers": layers,
        "provenance": provenance(workload, seed, first),
        "iterations": [{k: v for k, v in it.items() if k != "spans"}
                       for it in iterations],
        "spans": [dict(span, trace=f"{workload}-{seed}-{k}")
                  for k, it in enumerate(iterations) if it["traced"]
                  for span in it["spans"]],
    }


def provenance(workload: str, seed: int, first: dict) -> dict:
    return {
        "workload": workload, "seed": seed, "sim_seed": first["sim_seed"],
        "seed_pool": f"sim_seed = SEED_POOL[seed mod {len(SEED_POOL)}]",
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "platform": platform.platform(),
        **first["versions"],
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "cache_policy": CACHE_POLICY,
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def print_report(res: dict) -> None:
    prov = res["provenance"]
    print(f"# {res['workload']} seed {res['seed']} (sim_seed {res['sim_seed']}, "
          f"size {res['size']}); nproc {prov['nproc']}, {prov['cpu_model']}; "
          f"python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}; "
          f"threads {prov['thread_env']}; commit {prov['git_commit']}")
    print(f"# cache policy: {prov['cache_policy']}")
    probe = res["layers"]["host.probe_s"]["median"]
    print(f"# speed probe: median {probe:.4g} s; times below are scaled by "
          f"{PROBE_REF_S:g} s / probe, the raw ones are in the record")
    rows = res["layers"] if res["trace"] else res["end_to_end"]
    units = {**END_TO_END, **TABLE_ONLY}
    print(f"{'metric':40s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}")
    for name, s in rows.items():
        unit = units.get(name) or layer_unit(name)
        print(f"{name:40s} {unit:6s} {s['median']:14.6g} "
              f"{s.get('q1', float('nan')):14.6g} {s.get('q3', float('nan')):14.6g} "
              f"{s['n']:3d}")
    print(f"ops {res['attempted']}  ops_failed {res['failed']}  "
          f"checks: {', '.join(res['check_names'])}")
    for c in res["failed_checks"]:
        print(f"FAILED {c['name']}: {c['detail']}")


def metrics_of(res: dict) -> dict:
    if res["trace"]:
        return {name: {"value": s["median"], "unit": layer_unit(name)}
                for name, s in res["layers"].items()}
    return {name: {"value": res["end_to_end"][name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="kspp benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny shapes, for testing the benchmark itself")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kspp" / "__init__.py").is_file():
        print(f"error: no kspp package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    size = "quick" if args.quick else "full"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, size, bool(args.trace))
               for w in names]
    OUT_DIR.mkdir(exist_ok=True)
    for res in results:
        print_report(res)
        stem = f"{res['workload']}-seed{args.seed}-trace{args.trace}-{size}"
        (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(res, indent=1))

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{res['workload']}.{name}": m for res in results
                   for name, m in metrics_of(res).items()}
    print(json.dumps({
        "correct": all(res["correct"] for res in results),
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
