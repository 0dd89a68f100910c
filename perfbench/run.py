#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload ingest_hot --seed 1 --seconds 10 \
        --trace 0

Run it from the repository root. It builds the library and the perfbench
binary from source into .bench_build/ (Release; the first run takes about a
minute), runs the workload, and prints:

  * a "# fingerprint" line: host and build (cores, CPU model, compiler, build
    type, every TDS_* option, the checkpoint directory's filesystem, the git
    commit), with a warning when the build is not a plain Release build;
  * one line per metric: name, value, unit (traced runs add what each
    per-layer metric should move, and where; untraced runs add the
    end-to-end tails that carry no bound, marked "unbounded");
  * last, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports every end-to-end metric BENCHMARK.json lists, --trace 1
every per-layer one. The full record (fingerprint included) is also written
to .bench_build/results/, and appended to --out FILE when given, which is
what compare.py reads. The exit status is 0 only when every output check
passed.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Per run of the binary; the work scales with --seconds (a traced
# durability run takes about 5 s per second of --seconds).
RUN_TIMEOUT_S = 170
RUN_TIMEOUT_S_PER_SECOND = 15

# End-to-end numbers untraced runs report beside the bounded ones: they
# swing too much from run to run to carry a bound (see README).
UNBOUNDED = ("ingest_lag_p50_ms", "ingest_lag_p99_ms", "query_key_p99_us",
             "commit_p50_ms", "commit_p99_ms")

# What each per-layer metric should move, and on which workload. Traced runs
# print this beside each value.
HOT = "ingest_items_per_s on ingest_hot"
READS = "query_key_p50_us, topk_p50_ms on serve_mixed"
MOVES = {
    "producer_session.add_batch_ns_per_item": HOT,
    "producer_session.flush_ns_per_item":
        HOT + "; ingest_lag_p50_ms on serve_mixed (unbounded)",
    "producer_session.flush_stalls": "failed/attempted",
    "producer_session.items_rejected": "failed/attempted",
    "producer_session.self_ms": HOT,
    "spsc_ring.handoff_ns_per_item": HOT + " (none expected on ingest_cold)",
    "engine.flush_wait_ns_per_item":
        "ingest_items_per_s on ingest_hot and ingest_cold",
    "engine.park_count": HOT,
    "engine.max_queue_stall": HOT,
    "engine.queue_depth_max": HOT,
    "engine.shard_skew": HOT,
    "engine.shard_snapshot_us": "query_key_p50_us on serve_mixed",
    "engine.overhead_frac": HOT,
    "engine.self_ms": HOT + "; " + READS,
    "registry.ceh.update_batch_ns_per_item":
        "ingest_items_per_s, mostly on ingest_cold",
    "registry.wbmh.update_batch_ns_per_item":
        "ingest_items_per_s on durability",
    "registry.ewma.update_batch_ns_per_item":
        "ingest_items_per_s of EWMA engines (no workload uses one)",
    "registry.query_ns":
        "floor of query_key_p50_us on serve_mixed once reads stop cloning",
    "registry.encode_ns_per_key": READS + "; failover_ms on durability",
    "registry.decode_ns_per_key": READS + "; failover_ms on durability",
    "registry.snapshot_bytes_per_key": READS + "; commit_bytes on durability",
    "registry.live_keys": "peak_rss_mb",
    "registry.arena_extent": "peak_rss_mb",
    "registry.storage_bits_per_key": "peak_rss_mb",
    "merged_snapshot.topk_us": "topk_p50_ms on serve_mixed",
    "merged_snapshot.gather_ms": "topk_p50_ms on serve_mixed",
    "merged_snapshot.self_ms": "topk_p50_ms on serve_mixed",
    "checkpoint_log.capture_ms": "commit_p50_ms on durability (unbounded)",
    "checkpoint_log.segment_encode_us":
        "commit_p50_ms on durability (unbounded)",
    "checkpoint_log.compact_ms": "commit_p99_ms on durability (unbounded)",
    "checkpoint_log.live_bytes": "commit_bytes on durability",
    "checkpoint_log.self_ms": "commit_p50_ms on durability (unbounded)",
    "standby.apply_ms": "standby_apply_p50_ms on durability",
    "standby.full_apply_ms": "failover_ms on durability",
    "standby.promote_ms": "failover_ms on durability",
    "standby.self_ms": "standby_apply_p50_ms, failover_ms on durability",
    "loadgen.barrier_wait_frac": "none: whether the generator set the pace",
    "loadgen.late_ms": "none: whether the generator set the pace",
    "loadgen.self_ms": "none: the generator's own time",
    "trace.overhead_frac": "none: tracing cost on the workload's headline",
}
for _backend in ("ewma", "recent_items", "ceh", "wbmh", "coarse_ceh",
                 "polyexp"):
    for _op in ("update_ns", "query_ns"):
        MOVES["core.%s.%s" % (_backend, _op)] = HOT
for _name in ("ingest_items_per_s", "add_batch_ns_per_item",
              "flush_ns_per_item", "flush_wait_ns_per_item", "park_count",
              "overhead_frac", "handoff_ns_per_item"):
    MOVES["diag_1p1s." + _name] = (
        "explains " + HOT + ": the same stage at 1 producer x 1 shard")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fs_type(path):
    """Filesystem type of `path`: the longest /proc/mounts prefix."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                prefix = mount.rstrip("/") + "/"
                inside = path == mount or path.startswith(prefix)
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return os.environ.get("GIT_COMMIT", "unknown (not a git checkout)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out",
                        help="append the full record to this JSONL file")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)"
             % (args.workload, ", ".join(workloads)))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    scratch = os.path.join(BUILD_ROOT, "scratch", "%s-%d" % (tag, os.getpid()))
    results = os.path.join(BUILD_ROOT, "results")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch]
    if args.trace:
        command += ["--trace-out", os.path.join(results, tag + ".spans.jsonl")]
    filesystem = fs_type(scratch)
    timeout = max(RUN_TIMEOUT_S, RUN_TIMEOUT_S_PER_SECOND * args.seconds)
    started = time.time()
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish within %d s"
             % (args.workload, timeout))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result (exit %d)" % done.returncode)

    build_info = raw.get("build", {})
    fingerprint = {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "tds_options": build_info.get("tds_options"),
        "not_release": build_info.get("not_release", []),
        "checkpoint_fs": filesystem,
        "git_commit": git_commit(),
    }
    print("# fingerprint: " + json.dumps(fingerprint, sort_keys=True))
    if fingerprint["not_release"]:
        print("# WARNING: not a release build (%s); these numbers are not "
              "comparable to release results"
              % ", ".join(fingerprint["not_release"]))

    metrics = {}
    for entry in wanted:
        got = raw["metrics"].get(entry["name"])
        if got is None:
            fail("perfbench did not report %s" % entry["name"])
        if got["unit"] != entry["unit"]:
            fail("%s reported in %s, BENCHMARK.json says %s"
                 % (entry["name"], got["unit"], entry["unit"]))
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
        note = ("  -> " + MOVES.get(entry["name"], "?")) if args.trace else ""
        print("%-42s %16.6g %-6s%s"
              % (entry["name"], got["value"], got["unit"], note))
    unbounded = {}
    if not args.trace:
        for name in UNBOUNDED:
            got = raw["metrics"].get(name)
            if got is None:
                fail("perfbench did not report %s" % name)
            unbounded[name] = {"value": got["value"], "unit": got["unit"]}
            print("%-42s %16.6g %-6s  (unbounded)"
                  % (name, got["value"], got["unit"]))
    attempted = max(1, int(raw["attempted"]))
    failed = int(raw["failed"])
    correct = bool(raw["correct"]) and failed == 0 and done.returncode == 0
    print("# %s: correct=%s attempted=%d failed=%d failed_frac=%.3g wall=%.1fs"
          % (tag, correct, attempted, failed, failed / attempted,
             time.time() - started))

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    if unbounded:
        record["unbounded"] = unbounded
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
