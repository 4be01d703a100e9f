#!/usr/bin/env python3
"""The repo benchmark: host wall-clock time of calls into libatlc.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload tc-rmat16 --seed 1 --seconds 30

Builds perfbench_driver (libatlc + perfbench/driver.cpp) with CMake, makes
the workload's input from --seed in a process of its own, then starts one
measured driver process after another until --seconds have passed (at least
MIN_SAMPLES). Every sample is checked against the oracle. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics (medians over the samples);
--trace 1 adds one traced sample and reports the per-layer metrics.
README.md in this directory maps each metric to its layer and workload.
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

WORKLOADS = ("tc-rmat16", "lcc-cached-rmat15", "serve-zipf-mixed")
HELD_OUT_SEED = 4099  # later gain claims must also hold on this seed
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 60
BUILD_TYPE = "RelWithDebInfo"

# Per-cause virtual seconds from obs::MetricsRegistry, by trace cause name.
CAUSES = {
    "compute": "obs.compute_virtual_s",
    "flush_wait": "obs.flush_wait_virtual_s",
    "cache_hit": "obs.cache_hit_virtual_s",
    "cache_insert": "obs.cache_insert_virtual_s",
    "barrier": "obs.barrier_virtual_s",
    "allreduce": "obs.collective_virtual_s",
    "a2a": "obs.collective_virtual_s",
    "comm": "obs.comm_other_virtual_s",
}

def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def run_checked(cmd, **kwargs):
    """Run `cmd` to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, check=True, **kwargs)
    except subprocess.CalledProcessError as e:
        fail(f"{' '.join(cmd)} exited with {e.returncode}")
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(cmd)} timed out")


def build(root, out_dir):
    if not all(os.path.exists(os.path.join(root, p))
               for p in ("CMakeLists.txt", "src", "include")):
        fail(f"{root} is not an atlc source checkout (run from its root)")
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "-S", os.path.join(root, "perfbench"),
                 "-B", out_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
                stdout=sys.stderr)
    run_checked(["cmake", "--build", out_dir, "-j", jobs,
                 "--target", "perfbench_driver"], stdout=sys.stderr)
    return os.path.join(out_dir, "perfbench_driver")


def environment(root, out_dir):
    compiler = "unknown"
    cache = os.path.join(out_dir, "CMakeCache.txt")
    with open(cache, encoding="utf-8") as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1].strip()
                ver = subprocess.run([path, "--version"], capture_output=True,
                                     text=True, check=False).stdout
                compiler = ver.splitlines()[0] if ver else path
    # Git may look only inside the checkout, which need not be a repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                cwd=root, env=env, capture_output=True,
                                text=True, check=False).stdout.strip()
    except OSError:
        commit = ""
    return (f"nproc={os.cpu_count()} build={BUILD_TYPE} "
            f"compiler='{compiler}' commit={commit or 'unknown'}")


def sample(driver, workload, seed, work, traced):
    """One measured driver process; returns its JSON record."""
    cmd = [driver, "run", workload, str(seed), work]
    if traced:
        cmd.append("--trace")
    launched = time.monotonic()
    proc = run_checked(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=SAMPLE_TIMEOUT_S)
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["launched"] = launched
    return rec


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_determinism(records, fingerprint_path):
    """The driver's per-layer counters are all virtual-time or count
    quantities: they must be bit-identical across the samples of this run,
    traced or not, and across earlier runs of the same build and seed
    (fingerprints kept under the build directory)."""
    ref = records[0]["layers"]
    ok = True
    for i, rec in enumerate(records[1:], 1):
        diff = sorted(k for k in ref if rec["layers"][k] != ref[k])
        if diff:
            log(f"sample {i} differs from sample 0 in {diff}")
            ok = False
    if os.path.exists(fingerprint_path):
        with open(fingerprint_path, encoding="utf-8") as f:
            earlier = json.load(f)
        diff = sorted(k for k in ref if earlier.get(k) != ref[k])
        if diff:
            log(f"counters differ from an earlier run of this seed: {diff}")
            ok = False
    else:
        os.makedirs(os.path.dirname(fingerprint_path), exist_ok=True)
        with open(fingerprint_path, "w", encoding="utf-8") as f:
            json.dump(ref, f, sort_keys=True)
    return ok


def end_to_end(untraced):
    def med(f):
        return statistics.median(f(r) for r in untraced)
    return {
        "setup_s": med(lambda r: r["wall"]["setup_s"]),
        "solve_s": med(lambda r: r["wall"]["solve_s"]),
        "queries_per_s": med(lambda r: r["queries"] / r["wall"]["solve_s"]),
        "peak_rss_mb": med(lambda r: r["peak_rss_mb"]),
    }


def per_layer(untraced, traced, gen, attempted, failed):
    m = dict(traced[0]["layers"])
    # The trace sink is bound only during solve, so every sample's set-up
    # spans count.
    for phase in ("load", "clean", "csr"):
        m[f"graph.{phase}_s"] = statistics.median(
            r["wall"][f"{phase}_s"] for r in untraced + traced)
    m["intersect.oracle_s"] = gen["oracle_s"]
    for name in set(CAUSES.values()) | {"obs.other_virtual_s"}:
        m[name] = 0.0
    for cause, seconds in traced[0]["causes"].items():
        m[CAUSES.get(cause, "obs.other_virtual_s")] += seconds
    m["obs.trace_overhead_frac"] = (
        traced[0]["wall"]["solve_s"] /
        statistics.median(r["wall"]["solve_s"] for r in untraced) - 1.0)
    m["failed_frac"] = failed / attempted
    return m


def write_spans(path, records, t0):
    """The benchmark's own wall-clock spans as Chrome trace events, one
    track per sample process."""
    events = []
    for tid, rec in enumerate(records):
        base = (rec["launched"] - t0) * 1e6
        label = "traced" if "causes" in rec else "untraced"
        events.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                       "args": {"name": f"sample {tid} ({label})"}})
        for s in rec["spans"]:
            events.append({"name": s["name"], "ph": "X", "pid": 0, "tid": tid,
                           "ts": base + s["start_s"] * 1e6,
                           "dur": (s["end_s"] - s["start_s"]) * 1e6})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int,
                    help=f"input seed (held-out seed: {HELD_OUT_SEED})")
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    out_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    driver = build(root, out_dir)
    log(environment(root, out_dir))

    tag = f"{args.workload}-seed{args.seed}"
    work = os.path.join(out_dir, "work", f"{tag}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = run_checked([driver, "gen", args.workload, str(args.seed),
                            work], stdout=subprocess.PIPE, text=True,
                           timeout=SAMPLE_TIMEOUT_S)
        gen = json.loads(proc.stdout.strip().splitlines()[-1])
        t0 = time.monotonic()
        untraced = []
        while (len(untraced) < MIN_SAMPLES or
               time.monotonic() - t0 < args.seconds):
            untraced.append(sample(driver, args.workload, args.seed, work,
                                   False))
        # The traced run is one extra sample, apart from the timed ones.
        traced = ([sample(driver, args.workload, args.seed, work, True)]
                  if args.trace else [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = untraced + traced
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    fingerprint = os.path.join(out_dir, "fingerprints",
                               f"{tag}-{file_digest(driver)}.json")
    deterministic = check_determinism(records, fingerprint)
    globals_ok = all(r["global_ok"] for r in records)
    if not globals_ok:
        log("a global result differs from the oracle")
    correct = deterministic and globals_ok and failed == 0

    if args.trace:
        values = per_layer(untraced, traced, gen, attempted, failed)
        write_spans(os.path.join(out_dir, "traces", f"{tag}.json"), records,
                    t0)
    else:
        values = end_to_end(untraced)
    # Names and units are declared once, in BENCHMARK.json.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {d["name"] for d in declared} != values.keys():
        fail("reported metrics differ from those BENCHMARK.json declares")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in declared}
    for label, recs in (("untraced", untraced), ("traced", traced)):
        if recs:
            solve = sorted(round(r["wall"]["solve_s"], 3) for r in recs)
            log(f"{args.workload} seed {args.seed}: {len(recs)} {label} "
                f"samples, solve_s {solve}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
