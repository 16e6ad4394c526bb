"""Outside-in benchmark of qspectra.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh worker
interpreters (perfbench/worker.py) that import qspectra from ./src and
drive it through qspectra.cli.main and the public functions of its
modules, one operation after another in one thread.  Every output is
checked.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, from a separate traced body
whose spans perfbench/tracer.py records from outside the program.

Workloads:
  spectra-registry    ``report ID --json OUT`` for every registry id, in a
                      fresh process per pass, so every ring is built cold.
  spectra-small-warm  quantum_spectrum_report over the 27 small registry
                      rings, built once in set-up, repeated in one process.
  ext-bwb             seeded collections and bundle pairs through
                      ``check --bwb``, check_collection(_hyperplane),
                      ext_table and ext_hyperplane; no ring is built.
  crosscheck          ``selftest --filter M`` for M in schur, algebra,
                      exactlin, bwb, in a fresh process per pass.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import extgen  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("spectra-registry", "spectra-small-warm", "ext-bwb",
             "crosscheck")
# fresh interpreters that only set up, for the median of setup_s
SETUP_SAMPLES = 7
# a run, and every child in it, ends well inside the 180 s the contract
# allows
RUN_LIMIT_S = 170.0
# untraced and traced bodies alternate, so host drift during the run
# does not land on one side of the tracing overhead
TRACE_ROUNDS = 2


class BenchError(Exception):
    pass


def smooth_median(values):
    """Harrell-Davis estimate of the median: the mean of all the order
    statistics, weighted by the Beta((n+1)/2, (n+1)/2) mass on their
    share of [0, 1].  Where a few distinct operations sit around the
    middle, the plain median jumps whenever one of them crosses it; this
    moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2.0
    log_beta = 2 * math.lgamma(a) - math.lgamma(2 * a)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x)) - log_beta)

    total = weight = 0.0
    h = 1.0 / (8 * n)
    for i, x in enumerate(xs):
        # Simpson's rule on [i/n, (i+1)/n], eight steps
        w = sum((1 if k in (0, 8) else 4 if k % 2 else 2) * pdf(i / n + k * h)
                for k in range(9))
        total += w * x
        weight += w
    return total / weight


def drift_probe():
    """Median seconds of the calibration probe over 50 runs.  Printed
    before and after each run so host drift can be told from a
    regression; it is not a metric and gates nothing."""
    return statistics.median(calibrate.probe() for _ in range(50))


class Runner:
    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.start = time.perf_counter()
        self.children = 0
        self.setup = []       # calibrated seconds from spawn to READY
        self.raw_setup = []

    def remaining(self):
        return RUN_LIMIT_S - (time.perf_counter() - self.start)

    def child(self, mode, **extra):
        """Run one worker; returns its result dict (None for mode setup).
        The time from spawn to READY is one setup_s sample."""
        self.children += 1
        tag = "%s-%d" % (mode, self.children)
        spec = dict(root=ROOT, workload=self.args.workload,
                    seed=self.args.seed, seconds=self.args.seconds,
                    mode=mode, work=self.work,
                    out=os.path.join(self.work, tag + ".out.json"), **extra)
        spec_path = os.path.join(self.work, tag + ".spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        err_path = os.path.join(self.work, tag + ".stderr")
        with open(err_path, "w", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=err)
            try:
                line = proc.stdout.readline()
                t_ready = time.perf_counter()
                proc.wait(timeout=max(self.remaining(), 1.0))
            except subprocess.TimeoutExpired:
                raise BenchError("worker %s exceeded the run's time" % tag)
            finally:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
                proc.stdout.close()
        words = line.split()
        if words[:1] != [b"READY"] or proc.returncode != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                detail = fh.read()[-2000:]
            raise BenchError("worker %s exited %s: %s"
                             % (tag, proc.returncode, detail))
        scale, handler_s = float(words[1]), float(words[2])
        self.raw_setup.append(t_ready - t0)
        self.setup.append((t_ready - t0 - handler_s) * scale)
        if mode == "setup":
            return None
        with open(spec["out"], encoding="utf-8") as fh:
            return json.load(fh)

    def extra(self):
        if self.args.workload != "ext-bwb":
            return {}
        batch = extgen.generate(self.args.seed)
        return {"batch": extgen.write(batch, self.work)}


def end_to_end(r):
    args = r.args
    extra = r.extra()
    for _ in range(SETUP_SAMPLES):
        r.child("setup", **extra)
    results = []
    if args.workload == "spectra-small-warm":
        results.append(r.child("loop", **extra))
    else:
        # fresh process per pass; start another only if it should end in time
        t0 = time.perf_counter()
        last = 0.0
        while not results or (time.perf_counter() - t0) + last \
                <= args.seconds:
            t1 = time.perf_counter()
            results.append(r.child("pass", **extra))
            last = time.perf_counter() - t1
    passes = [p for res in results for p in res["passes"]]
    per_op = {}
    for res in results:
        for name, values in res["latencies"].items():
            per_op.setdefault(name, []).extend(values)
    count = sum(len(v) for v in per_op.values())
    # each operation's median over the passes, then the median operation
    typical = [statistics.median(v) for v in per_op.values()]
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    metrics = {
        "setup_s": (statistics.median(r.setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "ops_per_s": (count / sum(passes), "1/s"),
        "op_p50_s": (smooth_median(typical), "s"),
        "heaviest_op_s": (statistics.median(
            [h for res in results for h in res["heaviest"]]), "s"),
        "peak_rss_mb": (statistics.median(res["rss_mb"] for res in results),
                        "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "1"),
    }
    notes = ["passes %d, operations %d (%d distinct), setup samples %d"
             % (len(passes), count, len(per_op), len(r.setup)),
             "uncalibrated: setup_s %.6f, wall_s %.6f"
             % (statistics.median(r.raw_setup), statistics.median(
                 [p for res in results for p in res["raw_passes"]]))]
    if len(typical) >= 100:
        notes.append("op_p90_s %.6f over %d distinct operations"
                     % (statistics.quantiles(typical, n=10)[-1], len(typical)))
    return results, metrics, notes


def traced(r):
    extra = r.extra()
    spans = os.path.join(HERE, "work", "trace")
    os.makedirs(spans, exist_ok=True)
    extra["spans"] = os.path.join(spans, "%s.spans.jsonl" % r.args.workload)
    results, untraced, traced_walls, runs = [], [], [], []
    rounds = 1 if r.args.workload == "spectra-small-warm" else TRACE_ROUNDS
    last = 0.0
    # another round only while it should end inside the run's time
    while len(runs) < rounds and (not runs or r.remaining() > 2 * last):
        t0 = time.perf_counter()
        if r.args.workload != "spectra-small-warm":
            plain = r.child("pass", **extra)
            results.append(plain)
            untraced += plain["passes"]
        res = r.child("trace", **extra)
        results.append(res)
        untraced += res["untraced_walls"]
        traced_walls += res["traced_walls"]
        runs.append(res["layers"])
        last = time.perf_counter() - t0
    untraced = statistics.median(untraced)
    traced_wall = statistics.median(traced_walls)
    layers = tracer.mean_metrics(runs)
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.traced_wall_s"] = traced_wall
    layers["trace.overhead_ratio"] = traced_wall / untraced - 1.0
    metrics = {name: (value, tracer.unit(name))
               for name, value in layers.items()}
    notes = ["spans written to %s" % os.path.relpath(extra["spans"], ROOT)]
    return results, metrics, notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qspectra", "cli.py")):
        print("no qspectra sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    work = os.path.join(HERE, "work", "run-%d" % os.getpid())
    os.makedirs(work)
    try:
        r = Runner(args, work)
        before = drift_probe()
        results, metrics, notes = (traced if args.trace else end_to_end)(r)
        after = drift_probe()
    except BenchError as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(res["attempted"] for res in results)
    failed = sum(res["failed"] for res in results)
    errors = [e for res in results for e in res["errors"]]
    print("workload %s, seed %d, trace %d"
          % (args.workload, args.seed, args.trace))
    for note in notes:
        print("  " + note)
    print("  host drift probe: %.6f s before, %.6f s after (not a metric)"
          % (before, after))
    for name, (value, unit) in metrics.items():
        print("  %-34s %14.6f %s" % (name, value, unit))
    for e in errors[:20]:
        print("  check failed: %s" % e)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
