#!/usr/bin/env python3
"""Compares two sets of benchmark results, metric by metric and workload by
workload, against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records run.py appends with --out (several seeds per
workload). For every end-to-end metric and workload it prints both medians,
each side's spread (interquartile range over median) and the change, then a
verdict:

  regression  the new median is worse than the base median by more than the
              bound, and both spreads are within the bound;
  improved    the new median is better by more than the bound and by more
              than the base's own spread;
  unresolved  a spread exceeds the bound, so noise could hide a change of
              that size (unless every new run beats every base run, which
              reads as improved, or loses to every one: regression);
  unchanged   otherwise.

The end-to-end tails that carry no bound (a record's "unbounded" field) are
listed after each workload's bounded metrics, with medians and spreads but
no verdict.

It is informational: the exit status is 0 whatever the verdicts.
"""

import collections
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{workload: {metric: [values]}} over the untraced records in `path`."""
    runs = collections.defaultdict(lambda: collections.defaultdict(list))
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for group in ("metrics", "unbounded"):
                for name, metric in record.get(group, {}).items():
                    runs[record["workload"]][name].append(metric["value"])
    return runs


def spread(values):
    """Interquartile range over median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / abs(median) if median else float("inf")


def verdict(base, new, bound, higher_is_better):
    b, n = statistics.median(base), statistics.median(new)
    sign = 1.0 if higher_is_better else -1.0
    # Positive `gain` means the new side is better.
    gain = sign * (n - b) / abs(b) if b else 0.0
    all_better = all(sign * (x - y) > 0 for x in new for y in base)
    all_worse = all(sign * (x - y) < 0 for x in new for y in base)
    if max(spread(base), spread(new)) > bound:
        if all_better:
            return gain, "improved"
        if all_worse:
            return gain, "regression"
        return gain, "unresolved"
    if gain < -bound:
        return gain, "regression"
    if gain > bound and gain > spread(base):
        return gain, "improved"
    return gain, "unchanged"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    print("%-12s %-22s %12s %12s %7s %7s %8s %6s  %s" % (
        "workload", "metric", "base", "new", "sp.base", "sp.new", "better",
        "bound", "verdict"))
    counts = collections.Counter()
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in base or workload not in new:
            print("%-12s (missing from %s)" % (
                workload, "base" if workload not in base else "new"))
            continue
        bounded = {m["name"] for m in spec["end_to_end"]}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b, n = base[workload].get(name), new[workload].get(name)
            if not b or not n:
                continue
            gain, word = verdict(b, n, metric["bound"],
                                 metric["better"] == "higher")
            counts[word] += 1
            print("%-12s %-22s %12.5g %12.5g %7.3f %7.3f %+7.1f%% %6.2f  %s"
                  % (workload, name, statistics.median(b),
                     statistics.median(n), spread(b), spread(n),
                     100.0 * gain, metric["bound"], word))
        # The unbounded tails are all times: lower is better.
        for name in sorted(set(base[workload]) - bounded):
            b, n = base[workload][name], new[workload].get(name)
            if not n:
                continue
            mb = statistics.median(b)
            gain = (mb - statistics.median(n)) / abs(mb) if mb else 0.0
            print("%-12s %-22s %12.5g %12.5g %7.3f %7.3f %+7.1f%% %6s  %s"
                  % (workload, name, mb, statistics.median(n), spread(b),
                     spread(n), 100.0 * gain, "-", "(unbounded)"))
    print("summary: " + ", ".join(
        "%d %s" % (c, w) for w, c in sorted(counts.items())))


if __name__ == "__main__":
    main()
