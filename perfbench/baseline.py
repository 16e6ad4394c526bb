"""Measure the benchmark's own spread and record a baseline.

    python3 perfbench/baseline.py [--workloads W,...] [--seeds N]
                                  [--out perfbench/results/baseline.json]

Run from the root of a checkout.  For each workload it runs the benchmark
command of BENCHMARK.json once per seed 1..N with tracing off, then once
with tracing on, one run at a time.  It reports, per end-to-end metric,
the median, the quartiles (statistics.quantiles, n=4) and their distance
as a share of the median, next to the metric's bound; the traced run's
per-layer table; each run's host-drift probe; the interpreter version and
the core count.  With --out it writes all of that as JSON, and the
tables as markdown beside it.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE = re.compile(r"host drift probe: ([0-9.]+) s before, ([0-9.]+) s after")
RAW = re.compile(r"uncalibrated: setup_s ([0-9.]+), wall_s ([0-9.]+)")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit("%s seed %d trace %d exited %d:\n%s"
                         % (workload, seed, trace, proc.returncode,
                            proc.stderr[-3000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    probe = PROBE.search(proc.stdout)
    out = {"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"],
           "drift_probe_s": [float(probe.group(1)), float(probe.group(2))],
           "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    raw = RAW.search(proc.stdout)
    if raw:
        out["uncalibrated"] = {"setup_s": float(raw.group(1)),
                               "wall_s": float(raw.group(2))}
    return out


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run_once(bench, workload, seed, 0))
            print("%s seed %d: %.1f s, %s" % (
                workload, seed, runs[-1]["elapsed_s"],
                " ".join("%s=%.6g" % kv
                         for kv in runs[-1]["metrics"].items())),
                flush=True)
        summary = {}
        for name in bounds:
            s = summarize([r["metrics"][name] for r in runs])
            s["bound"] = bounds[name]
            summary[name] = s
            print("  %-14s median %.6g  q1 %.6g  q3 %.6g  spread %.3f  "
                  "(bound %.2f)" % (name, s["median"], s["q1"], s["q3"],
                                    s["spread"], s["bound"]), flush=True)
        entry = {"end_to_end": summary, "runs": runs}
        if not args.no_trace:
            traced = run_once(bench, workload, 1, 1)
            entry["traced"] = traced
            print("  traced: %s" % " ".join(
                "%s=%.6g" % kv for kv in traced["metrics"].items()
                if kv[1]), flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        with open(os.path.splitext(args.out)[0] + ".md", "w",
                  encoding="utf-8") as fh:
            fh.write(markdown(report, bench))


def markdown(report, bench):
    """The baseline as tables: end-to-end metrics per workload, then the
    traced per-layer metrics side by side."""
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    names = list(report["workloads"])
    out = ["# Benchmark baseline", "",
           "Python %s, %d cores, %d s per run, seeds 1-%d per workload. "
           "Times are calibrated seconds (perfbench/calibrate.py); "
           "spread is (q3 - q1) / median." % (
               report["python"], report["nproc"], report["run_seconds"],
               report["seeds"]), ""]
    for w in names:
        e2e = report["workloads"][w]["end_to_end"]
        out += ["## %s" % w, "",
                "| metric | unit | median | q1 | q3 | spread | bound |",
                "| --- | --- | --- | --- | --- | --- | --- |"]
        for name, s in e2e.items():
            out.append("| %s | %s | %.6g | %.6g | %.6g | %.3f | %.2f |" % (
                name, units[name], s["median"], s["q1"], s["q3"],
                s["spread"], s["bound"]))
        out.append("")
    traced = [w for w in names if "traced" in report["workloads"][w]]
    if traced:
        out += ["## Traced run, seed 1", "",
                "| metric | unit | " + " | ".join(traced) + " |",
                "| --- | --- | " + " | ".join("---" for _ in traced) + " |"]
        for m in bench["per_layer"]:
            out.append("| %s | %s | %s |" % (m["name"], m["unit"], " | ".join(
                "%.6g" % report["workloads"][w]["traced"]["metrics"][m["name"]]
                for w in traced)))
        out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main())
