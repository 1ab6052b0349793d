#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The first form builds perfbench/bench.exe
with dune (inside the checkout's _build, dune cache off), runs one
workload in a fresh process, relays its report, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  bench.exe emits
every metric of BENCHMARK.json; the untraced run (--trace 0) reports the
end-to-end ones, the traced run (--trace 1) the per-layer ones.  The exit
code is non-zero when the build fails, a correctness gate fails, or the
run times out.

--selftest checks the benchmark itself: for every workload, a traced and
an untraced run at one seed must agree bit for bit on every modelled
metric and on the allocation count, and every metric of BENCHMARK.json
must be emitted with its unit (and be non-zero where the workload
exercises it).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def build():
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "--cache=disabled",
         "--display=quiet", "./perfbench/bench.exe"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(proc.returncode or 1)


def run_exe(args, timeout=RUN_TIMEOUT_S):
    """Run bench.exe; return (exit code, stdout lines)."""
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        sys.exit(3)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return res if isinstance(res, dict) and "metrics" in res else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main_run(opts):
    spec = load_spec()
    wanted = [m["name"] for m in
              spec["per_layer" if opts.trace else "end_to_end"]]
    code, lines = run_exe(["--workload", opts.workload,
                           "--seed", str(opts.seed),
                           "--seconds", str(opts.seconds),
                           "--trace", str(opts.trace)])
    res = result_of(lines)
    if res is None or any(n not in res["metrics"] for n in wanted):
        sys.stderr.write("\n".join(lines) + "\nperfbench: no result\n")
        return code or 1
    res["metrics"] = {n: res["metrics"][n] for n in wanted}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(res))
    sys.stdout.flush()
    return code


# -- self-test ---------------------------------------------------------------

WORKLOADS = ["store-ycsb-a", "serve-b-cached", "cluster-r2", "store-ycsb-e"]

# Host-cost metrics: wall time, heap and GC figures, and the stage
# attribution only traced runs collect.  Everything else is modelled (or a
# modelled count) and must match bit for bit between traced and untraced.
HOST = {"setup_s", "host_kops", "peak_heap_mb", "alloc_words_per_op"}


def is_host(name):
    return (name in HOST or name.endswith("_s") or ".wall_" in name
            or name.startswith("harness.") or name.startswith("gc.")
            or name.startswith("core.stage.")
            or name.startswith("service.stage."))


# Metrics that must be non-zero on a workload that exercises their layer.
STORE = ["sim_mops", "read_p50_ns", "read_tail_ns", "core.read.busy_s",
         "core.read.wall_p50_ns", "core.read.wall_p99_ns",
         "core.write.wall_p99_ns", "core.recover.wall_s",
         "core.get.memtable_frac", "core.put_p50_ns",
         "core.put_p99_ns", "core.write_amp", "core.restart_us",
         "core.stage.get_log_read_ns", "core.stage.put_index_insert_ns",
         "kv.vlog.reads_per_get", "kv.vlog.append_bytes_per_put",
         "pmem.read_ops_per_get", "pmem.read_wait_ns_per_op",
         "workload.gen_s", "harness.traced_host_kops",
         "gc.minor_words_per_op"]
NONZERO = {
    "store-ycsb-a": STORE + ["harness.runner.self_s", "core.flushes",
                             "core.last_compactions", "core.get.last_frac",
                             "core.stage.get_memtable_ns"],
    "serve-b-cached": STORE + [
        "cache.hit_frac", "cache.invalidations",
        "core.stage.get_cache_ns", "service.server.self_s",
        "service.stage.decode_ns", "service.stage.queue_ns",
        "service.stage.execute_ns", "service.stage.encode_ns",
        "service.queue_wait_p99_ns", "service.max_depth",
        "service.grouped_write_frac", "service.group_commits"],
    "cluster-r2": STORE + ["cluster.run.self_s",
                           "cluster.replica_applies_per_write",
                           "cluster.node_ops_max_over_mean",
                           "cluster.audit_s"],
    "store-ycsb-e": ["sim_mops", "read_p50_ns", "read_tail_ns",
                     "core.scan.busy_s", "core.scan.wall_p50_ns",
                     "core.stage.scan_stream_ns", "harness.runner.self_s",
                     "core.recover.wall_s", "workload.gen_s"],
}


# Measured seconds per workload: enough for store-ycsb-a to run
# last-level compactions, and for every other layer to see traffic.
SELFTEST_SECONDS = {"store-ycsb-a": 4, "serve-b-cached": 2, "cluster-r2": 2,
                    "store-ycsb-e": 1}

# Minor-heap words are counted exactly and must match bit for bit.  Words
# allocated straight into the major heap (large blocks) are booked by the
# OCaml 5.1 runtime only at GC steps, so the total moves by up to ~2e-4
# between two runs of the same seed and mode.
ALLOC_TOLERANCE = 1e-3


def selftest():
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []

    def fetch(workload, trace):
        code, lines = run_exe(["--workload", workload, "--seed", "7",
                               "--seconds", str(SELFTEST_SECONDS[workload]),
                               "--trace", str(trace)])
        res = result_of(lines)
        if code != 0 or res is None:
            problems.append(f"{workload} --trace {trace}: exit {code}, "
                            f"no result")
            return {}
        return res["metrics"]

    for w in WORKLOADS:
        plain = fetch(w, 0)
        traced = fetch(w, 1)
        if not (plain and traced):
            continue
        for name, unit in units.items():
            for label, m in (("untraced", plain), ("traced", traced)):
                if name not in m:
                    problems.append(f"{w} {label}: {name} missing")
                elif m[name]["unit"] != unit:
                    problems.append(f"{w} {label}: {name} unit "
                                    f"{m[name]['unit']} != {unit}")
        extra = set(traced) - set(units)
        if extra:
            problems.append(f"{w}: metrics not in BENCHMARK.json: {extra}")
        diffs = [n for n in units if not is_host(n) and n in plain
                 and n in traced and plain[n]["value"] != traced[n]["value"]]
        for n in diffs:
            problems.append(f"{w}: modelled {n} differs: "
                            f"{plain[n]['value']} vs {traced[n]['value']}")
        a0 = plain["alloc_words_per_op"]["value"]
        a1 = traced["alloc_words_per_op"]["value"]
        m0 = plain["gc.minor_words_per_op"]["value"]
        m1 = traced["gc.minor_words_per_op"]["value"]
        if m0 != m1:
            problems.append(f"{w}: tracing changes gc.minor_words_per_op "
                            f"{m0} -> {m1}")
        if abs(a1 - a0) > ALLOC_TOLERANCE * a0:
            problems.append(f"{w}: tracing changes alloc_words_per_op "
                            f"{a0} -> {a1}")
        for n in NONZERO[w]:
            if traced.get(n, {}).get("value", 0) == 0:
                problems.append(f"{w}: {n} is 0 where the workload "
                                f"exercises it")
        print(f"{w}: {len(units)} metrics, modelled identical: "
              f"{not diffs}; alloc words/op untraced {a0:.3f}, "
              f"traced {a1:.3f}")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    opts = ap.parse_args()
    if not opts.selftest and not opts.workload:
        ap.error("--workload is required")
    build()
    sys.exit(selftest() if opts.selftest else main_run(opts))


if __name__ == "__main__":
    main()
