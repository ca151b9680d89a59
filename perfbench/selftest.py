#!/usr/bin/env python3
"""Smoke-scale self-test of the REED benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Builds reed_bench, then for every workload in BENCHMARK.json:
  * runs it untraced and traced at smoke scale;
  * checks the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, that every oracle held (correct, no
    failures), and that the metrics are exactly BENCHMARK.json's end-to-end
    (untraced) or per-layer (traced) metrics, each with its declared unit;
  * checks every end-to-end value is positive;
  * checks one seed regenerates byte-identical inputs and another seed
    different ones.
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import sys

from run import ROOT, build, run_bench


def check_run(workload, seconds, trace, spec, failures):
    code, out = run_bench(["--workload", workload, "--seed", "7",
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture=True)
    where = f"{workload} --trace {trace}"
    if code != 0 or not out:
        failures.append(f"{where}: exit code {code}")
        if out:
            print(out, file=sys.stderr)
        return
    result = json.loads(out.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0:
        failures.append(f"{where}: oracles failed: {out}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        failures.append(f"{where}: attempted {result['attempted']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} - set(got)
        extra = set(got) - {m["name"] for m in wanted}
        failures.append(f"{where}: missing {sorted(missing)} extra {sorted(extra)}")
    for m in wanted:
        value = got.get(m["name"])
        if value is None:
            continue
        if value.get("unit") != m["unit"]:
            failures.append(f"{where}: {m['name']} unit {value.get('unit')}")
        if not trace and not value.get("value", 0) > 0:
            failures.append(f"{where}: {m['name']} = {value.get('value')}")
    print(f"ok   {where}: {result['attempted']} attempted, "
          f"{len(got)} metrics", flush=True)


def check_inputs(workload, failures):
    digests = []
    for seed in ("7", "7", "8"):
        code, out = run_bench(["--workload", workload, "--seed", seed,
                               "--inputs-digest"], capture=True)
        digests.append(out.strip() if code == 0 and out else None)
    if None in digests or digests[0] != digests[1] or digests[0] == digests[2]:
        failures.append(f"{workload}: input digests {digests}")
    else:
        print(f"ok   {workload}: seed 7 inputs regenerate byte-identically")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    failures = []
    for w in spec["workloads"]:
        check_inputs(w["name"], failures)
        for trace in (0, 1):
            check_run(w["name"], args.seconds, trace, spec, failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
