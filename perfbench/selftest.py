#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, at the tiny input scale.

    python3 perfbench/selftest.py        # from the repository root

Checks, for every workload named in BENCHMARK.json:
  * an untraced run exits 0, reports correct results, and emits exactly the
    end_to_end metrics with their units, each a positive number;
  * a traced run emits exactly the per_layer metrics with their units, and
    every traced counter equals the metrics-registry delta of the same
    calls (the "reconcile" record of the traced run);
  * the bypass design: the transfer graph and the join-order optimizer do
    work on `selective` and stand down on `fig1` and `served`, and the
    a-priori rewrite applies on `fig1` (its pairs queries) and not on
    `served`;
and that a deliberately corrupted result makes the run fail.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SECONDS = "2"
SEED = "42"  # the default seed, so the stored digests are checked too

failures = []


def check(cond, msg):
    print(("ok   " if cond else "FAIL ") + msg)
    if not cond:
        failures.append(msg)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", SECONDS,
           "--trace", trace, "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line]
    result = records[-1] if records else None
    return proc.returncode, records, result


def metric_values(result, spec_metrics, label):
    got = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec_metrics}
    check(set(got) == set(want), label + ": metric names match BENCHMARK.json")
    for name, unit in want.items():
        if name in got:
            check(got[name][1] == unit, "%s: %s unit is %s" % (label, name, unit))
    return {k: v[0] for k, v in got.items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layers = {}
    for w in [w["name"] for w in spec["workloads"]]:
        code, _, result = run(w, "0")
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0, w + ": untraced run is clean")
        if result is None:
            continue
        values = metric_values(result, spec["end_to_end"], w)
        check(all(v > 0 for v in values.values()),
              w + ": every end-to-end metric is positive")

        code, records, result = run(w, "1")
        check(code == 0 and result is not None and result["correct"],
              w + ": traced run is clean")
        if result is None:
            continue
        layers[w] = metric_values(result, spec["per_layer"], w + " traced")
        reconcile = [r for r in records if r.get("record") == "reconcile"]
        check(len(reconcile) == 1, w + ": traced run emits a reconcile record")
        for name, c in (reconcile[0]["checks"] if reconcile else {}).items():
            check(c["traced"] == c["registry"],
                  "%s: %s traced %g == registry %g"
                  % (w, name, c["traced"], c["registry"]))

    if {"selective", "fig1", "served"} <= set(layers):
        sel, fig1, served = layers["selective"], layers["fig1"], layers["served"]
        check(sel["plan.cbo_reorders"] > 0, "selective: the CBO reorders")
        check(sel["exec.transfer_rows_eliminated"] > 0,
              "selective: transfer eliminates rows")
        for name, lv in (("fig1", fig1), ("served", served)):
            check(lv["plan.cbo_reorders"] == 0, name + ": the CBO stands down")
            check(lv["exec.transfer_rows_eliminated"] == 0,
                  name + ": transfer stands down")
        check(fig1["rewrite.apriori_apply_us"] > 0
              and fig1["rewrite.apriori_keep_ratio"] > 0,
              "fig1: a-priori reducers apply")
        check(served["rewrite.apriori_apply_us"] == 0
              and served["rewrite.apriori_keep_ratio"] == 0,
              "served: no a-priori reducer applies")

    code, _, result = run("fig1", "0", "--corrupt")
    check(code != 0 and (result is None or not result["correct"]),
          "a corrupted result fails the run")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
