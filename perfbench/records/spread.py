#!/usr/bin/env python3
"""Per workload and end-to-end metric of a trials.jsonl: the median of its
trials, and the distance between their first and third quartile
(statistics.quantiles(values, n=4)) as a share of that median.

    python3 perfbench/records/spread.py perfbench/records/spread_seeds_1_10.jsonl
"""
import collections
import json
import statistics
import sys

values = collections.defaultdict(lambda: collections.defaultdict(list))
for line in open(sys.argv[1]):
    trial = json.loads(line)
    result = trial["result"]
    assert result["correct"] and result["failed"] == 0 and not trial["guards"], line[:200]
    for metric, reading in result["metrics"].items():
        values[trial["workload"]][metric].append(reading["value"])
for workload, metrics in values.items():
    for metric, v in metrics.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        print(
            f"{workload:15s} {metric:15s} n={len(v):2d} median {median:14.6g} "
            f"spread {(q3 - q1) / median:6.3f}  min {min(v):12.6g} max {max(v):12.6g}"
        )
