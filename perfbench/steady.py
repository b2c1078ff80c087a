#!/usr/bin/env python3
"""Run one workload on several seeds and print each end-to-end metric's
median and quartile spread (IQR / median), next to a third of its bound.

    python3 perfbench/steady.py WORKLOAD [--seeds 1,2,3,4,5] [--seconds S]

Run from the repository root. The bounds and run length come from
BENCHMARK.json; a spread above a third of its bound is flagged.
"""
import argparse
import json
import statistics
import subprocess
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds.split(","):
        t0 = time.time()
        out = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", seed,
                               "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            raise SystemExit("seed %s failed (%d):\n%s%s" % (seed, out.returncode, out.stdout, out.stderr))
        res = json.loads(out.stdout.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, res
        line = []
        for name, m in res["metrics"].items():
            values[name].append(m["value"])
            line.append("%s=%.4g" % (name, m["value"]))
        print("seed %s (%.0f s): %s" % (seed, time.time() - t0, " ".join(line)), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4)
        spread = (q[2] - q[0]) / med
        flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above bound/3"
        print("%-14s median %-12.5g spread %.4f (bound/3 %.4f)%s"
              % (m["name"], med, spread, m["bound"] / 3, flag))


if __name__ == "__main__":
    main()
