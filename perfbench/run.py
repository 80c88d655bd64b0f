#!/usr/bin/env python3
"""End-to-end benchmark of the DTM simulator's three production drivers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout. The first run configures and builds
perfbench/ (the dtm library plus perfbench/driver.cpp, Release) into
.bench_build/perfbench; later runs only re-check the build.

--trace 0 repeats the untraced workload, one fresh driver process per
repeat, until S seconds have passed (at least MIN_REPEATS repeats) and
reports the medians of the end-to-end metrics. --trace 1 alternates
untraced and traced repeats for S seconds (at least one pair) and reports
the per-layer metrics, with timings as medians over the traced repeats.
Every repeat runs the correctness gates, and every repeat of one seed,
traced or not, must reproduce the same commit hash. The last line of
standard output is the result object; the exit status is 1 when a gate
fails. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"

WORKLOADS = [
    "clique-greedy-stream",
    "line-bucket-batch",
    "landmark-greedy-stream",
    "cluster-dist-serve",
]

MIN_REPEATS = 3
# A workload's run must end within this many seconds, hung repeats included.
RUN_DEADLINE_S = 170

# name -> (unit, better); medians over the untraced repeats of one run.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "commits_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_latency_p50_steps": ("steps", "lower"),
    "sim_latency_p99_steps": ("steps", "lower"),
}

# Simulated results: deterministic per seed, so every repeat must agree.
DETERMINISTIC = [
    "commit_hash", "attempted", "committed", "sim_latency_p50_steps",
    "sim_latency_p99_steps", "makespan_ratio",
]

# name -> (unit, better); host timings are medians over the traced
# repeats, counts are identical across them.
PER_LAYER = {
    "sched.on_step_s": ("s", "lower"),
    "sched.on_step_share": ("ratio", "lower"),
    "sched.on_step_us_p99": ("us", "lower"),
    "sched.assignments": ("count", "higher"),
    "batch.probes": ("count", "lower"),
    "batch.estimates": ("count", "lower"),
    "batch.memo_hit_rate": ("ratio", "higher"),
    "batch.rebuilds": ("count", "lower"),
    "batch.activations": ("count", "lower"),
    "net.build_s": ("s", "lower"),
    "net.dist_calls": ("count", "lower"),
    "net.dist_calls_per_commit": ("calls/commit", "lower"),
    "net.dist_calls_in_sched": ("count", "lower"),
    "net.dist_s_est": ("s", "lower"),
    "net.dist_share": ("ratio", "lower"),
    "net.routing_misses": ("count", "lower"),
    "net.routing_hit_rate": ("ratio", "higher"),
    "sim.stepping_s": ("s", "lower"),
    "sim.engine_self_s": ("s", "lower"),
    "sim.engine_self_share": ("ratio", "lower"),
    "sim.step_us_p50": ("us", "lower"),
    "sim.step_us_p99": ("us", "lower"),
    "sim.active_steps": ("count", "lower"),
    "sim.peak_live": ("count", "lower"),
    "sim.peak_calendar": ("count", "lower"),
    "dist.build_s": ("s", "lower"),
    "dist.messages": ("count", "lower"),
    "dist.messages_per_commit": ("msgs/commit", "lower"),
    "dist.retries": ("count", "lower"),
    "dist.retry_rate": ("ratio", "lower"),
    "dist.probe_timeouts": ("count", "lower"),
    "fault.dropped": ("count", "lower"),
    "fault.duplicated": ("count", "lower"),
    "source.offers_s": ("s", "lower"),
    "source.offered": ("count", "higher"),
    "serve.shed": ("count", "lower"),
    "log.peak_committed_log": ("count", "lower"),
    "log.drained": ("count", "higher"),
    "finalize_s": ("s", "lower"),
    "makespan_ratio": ("ratio", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

TIMED_LAYER = {name for name, (unit, _) in PER_LAYER.items()
               if unit in ("s", "us")
               or name in ("sched.on_step_share", "net.dist_share",
                           "sim.engine_self_share")}

# The layer each workload is chosen to load, checked on traced runs:
# (metric, threshold). A miss is reported, not failed.
PURPOSE = {
    "clique-greedy-stream": ("sim.engine_self_share", 0.3),
    "line-bucket-batch": ("sched.on_step_share", 0.5),
    "landmark-greedy-stream": ("net.dist_share", 0.5),
    "cluster-dist-serve": ("sched.on_step_share", 0.5),
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(BUILD), "-j", jobs])
    if not DRIVER.is_file():
        raise BenchError(f"build produced no {DRIVER}")


def run_build_step(cmd):
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def provenance(seed):
    """Where the numbers come from: commit (or a source digest when the
    checkout is not a git repository), seed and the driver's build facts."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        if p.returncode == 0:
            commit = p.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.glob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            "seed": seed}


def run_child(workload, seed, traced, deadline):
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd)} timed out")
    lines = p.stdout.strip().splitlines()
    if not lines:
        log(p.stderr[-2000:])
        raise BenchError(f"{' '.join(cmd)} printed nothing "
                         f"(exit {p.returncode})")
    rep = json.loads(lines[-1])
    if p.returncode != 0 and rep.get("ok", False):
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}")
    return rep


def collect(workload, seed, seconds, traced_mode):
    """Repeats for `seconds`; returns (untraced, traced) repeat reports.

    Another repeat starts only while at least half of it, judged by the
    last one, still fits, so a run overshoots `seconds` by at most half a
    repeat on average."""
    untraced, traced = [], []
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    while True:
        t0 = time.monotonic()
        untraced.append(run_child(workload, seed, False, deadline))
        if traced_mode:
            traced.append(run_child(workload, seed, True, deadline))
        now = time.monotonic()
        enough = len(untraced) >= (1 if traced_mode else MIN_REPEATS)
        if enough and now - start + (now - t0) / 2 >= seconds:
            return untraced, traced


def gates(reps):
    """Correctness failures across all repeats of one seed."""
    errors = []
    for r in reps:
        for e in r.get("errors", []):
            errors.append(f"{'traced' if r.get('traced') else 'untraced'} "
                          f"repeat: {e}")
        if not r.get("ok", False) and not r.get("errors"):
            errors.append("repeat failed without a reason")
    ok_reps = [r for r in reps if "commit_hash" in r]
    for key in DETERMINISTIC:
        values = {json.dumps(r.get(key)) for r in ok_reps}
        if len(values) > 1:
            errors.append(f"{key} differs between repeats: "
                          f"{sorted(values)}")
    traced = [r for r in ok_reps if "layers" in r]
    for name in PER_LAYER.keys() - TIMED_LAYER - {"trace.overhead_pct"}:
        values = {r["layers"][name] for r in traced}
        if len(values) > 1:
            errors.append(f"{name} differs between traced repeats: "
                          f"{sorted(values)}")
    return errors


def median(xs):
    return statistics.median(xs)


def end_to_end(reps):
    m = {
        "setup_s": median([s for r in reps for s in r["setup_s"]]),
        "wall_s": median([r["wall_s"] for r in reps]),
        "commits_per_s": median([r["commits_per_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "sim_latency_p50_steps": reps[0]["sim_latency_p50_steps"],
        "sim_latency_p99_steps": reps[0]["sim_latency_p99_steps"],
    }
    return {k: {"value": m[k], "unit": END_TO_END[k][0]} for k in END_TO_END}


def per_layer(untraced, traced):
    m = {}
    for name in PER_LAYER:
        if name == "trace.overhead_pct":
            continue
        values = [r["layers"][name] for r in traced]
        m[name] = median(values) if name in TIMED_LAYER else values[0]
    m["trace.overhead_pct"] = median(
        [100.0 * (t["wall_s"] - u["wall_s"]) / u["wall_s"]
         for u, t in zip(untraced, traced)])
    return {k: {"value": m[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}


def check_manifest():
    """BENCHMARK.json, when present, must name exactly these metrics."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != dict(table):
            raise BenchError(f"BENCHMARK.json {key} does not match run.py")
    listed = [w["name"] for w in spec["workloads"]]
    if listed != WORKLOADS:
        raise BenchError("BENCHMARK.json workloads do not match run.py")


def run_workload(workload, seed, seconds, trace):
    untraced, traced = collect(workload, seed, seconds, trace)
    reps = untraced + traced
    errors = gates(reps)
    attempted = sum(r.get("attempted", 0) for r in reps)
    failed = sum(r.get("attempted", 0) - r.get("committed", 0) for r in reps)
    for e in errors:
        log(f"GATE FAILED [{workload}]: {e}")
    if errors:
        return {"correct": False, "attempted": max(attempted, 1),
                "failed": failed, "metrics": {}}

    first = untraced[0]
    log(f"[{workload}] seed={seed} repeats={len(untraced)} "
        f"traced={len(traced)} commit_hash={first['commit_hash']} "
        f"commits={first['committed']} "
        f"latency_samples={first['latency_samples']} "
        f"makespan_ratio={first['makespan_ratio']} "
        f"provenance={json.dumps(first['provenance'])}")
    metrics = per_layer(untraced, traced) if trace else end_to_end(untraced)
    for name, v in metrics.items():
        print(f"{workload}  {name:28s} {v['value']:>16.6g} {v['unit']}")
    if trace:
        metric, threshold = PURPOSE[workload]
        value = metrics[metric]["value"]
        verdict = "confirmed" if value >= threshold else "NOT CONFIRMED"
        print(f"{workload}  purpose: {metric} = {value:.3f} "
              f"(expected >= {threshold}) {verdict}")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")

    try:
        check_manifest()
        build()
        print(json.dumps({"provenance": provenance(args.seed)}))
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace == 1)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for w in WORKLOADS:
                r = run_workload(w, args.seed, args.seconds, args.trace == 1)
                result["correct"] &= r["correct"]
                result["attempted"] += r["attempted"]
                result["failed"] += r["failed"]
                for name, v in r["metrics"].items():
                    result["metrics"][f"{w}/{name}"] = v
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
