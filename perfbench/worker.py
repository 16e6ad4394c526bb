"""One fresh interpreter of the benchmark: imports qspectra from the
checkout, does the workload's set-up, says READY on stdout, then runs the
workload's body and writes what it measured to a JSON file.

    python3 perfbench/worker.py SPEC.json

SPEC names the checkout root, the workload, the mode ("setup": stop
after READY; "pass": one timed body; "loop": repeat the body until the
time is up; "trace": the traced body), the seed, and the file to write.
The program is driven only through qspectra.cli.main and the public
functions of its modules; every output is checked here, after the clock
has stopped.
"""

import ast
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import extgen  # noqa: E402

clock = time.perf_counter

# the registry rings spectra-small-warm leaves out: those above dimension
# 12, and IG(2,6), whose split alone would outweigh the other reports
WARM_EXCLUDED = ("G(2,6)", "G(3,6)", "IG(2,6)", "IG(2,8)", "IG(2,10)")
W1_HEAVIEST = "IG(2,10)"
W2_HEAVIEST = "G(2,4)"
W2_TRACE_PASSES = 10
W2_TRACE_ROUNDS = 3
SELFTEST_MODULES = ("schur", "algebra", "exactlin", "bwb")
W4_HEAVIEST = "algebra"
SHIPPED_SEED = 1
# the calibration probe of each workload (see calibrate.py): the warm
# reports are small-Fraction arithmetic, the rest is dominated by large
# Fractions, dicts and tuples
PROBE = {"spectra-registry": "big-fractions-and-dicts",
         "spectra-small-warm": "small-fractions",
         "ext-bwb": "big-fractions-and-dicts",
         "crosscheck": "big-fractions-and-dicts"}


def golden_name(vid):
    return (vid.replace("(", "_").replace(")", "").replace(",", "_")
            + ".json")


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Result:
    """What one worker measured and checked.  Times are calibrated
    seconds (see calibrate.py), worked out when a pass ends."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.passes = []          # calibrated seconds of each pass's body
        self.raw_passes = []      # the same, uncalibrated
        self.latencies = {}       # operation name -> calibrated seconds
        self.heaviest = []        # calibrated seconds of the heaviest op
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._ops = []

    def op(self, t0, t1, names, parts=None, heaviest=False):
        """One call of the body, from t0 to t1 on the clock, that did the
        named operations.  They share its time, unless ``parts`` gives
        each its own (start, end)."""
        self._ops.append((t0, t1, names, parts, heaviest))

    def end_pass(self):
        cal_total = raw_total = 0.0
        seconds = self.sampler.seconds
        for t0, t1, names, parts, heaviest in self._ops:
            cal = seconds(t0, t1)
            cal_total += cal
            raw_total += t1 - t0
            for i, name in enumerate(names):
                self.latencies.setdefault(name, []).append(
                    seconds(*parts[i]) if parts else cal / len(names))
            if heaviest:
                self.heaviest.append(cal)
        self._ops = []
        self.passes.append(cal_total)
        self.raw_passes.append(raw_total)

    def fail(self, what, count=1):
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append(what)

    def to_dict(self):
        return {"passes": self.passes, "raw_passes": self.raw_passes,
                "latencies": self.latencies,
                "heaviest": self.heaviest, "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors,
                "rss_mb": rss_mb()}


class Stamped(io.StringIO):
    """A stdout that notes the clock when each selftest row line is
    written; the row finished just before its line."""

    def __init__(self):
        super().__init__()
        self.stamps = []

    def write(self, s):
        if s.startswith("[pass]") or s.startswith("[fail]"):
            self.stamps.append(clock())
        return super().write(s)


def call_cli(main, argv, out=None):
    """(exit code, stdout text, start, end).  An exception out of main is
    exit code None."""
    out = out if out is not None else io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = main(argv)
        except (Exception, SystemExit) as e:  # counted as a failed operation
            rc = None
            err.write("%s: %s" % (type(e).__name__, e))
        t1 = clock()
    return rc, out.getvalue(), t0, t1


# --- spectra-registry ----------------------------------------------------

def registry_pass(q, spec, res, main, tracer=None):
    outputs = []
    for vid in q.cli.REGISTRY:
        path = os.path.join(spec["work"], golden_name(vid))
        if tracer is not None:
            tracer.op = vid
        rc, _text, t0, t1 = call_cli(main, ["report", vid, "--json", path])
        res.op(t0, t1, [vid], heaviest=vid == W1_HEAVIEST)
        outputs.append((vid, rc, path))
    res.end_pass()
    golden = os.path.join(HERE, "golden", "reports")
    for vid, rc, path in outputs:
        res.attempted += 1
        try:
            with open(path, "rb") as fh:
                got = fh.read()
            os.remove(path)
        except OSError:
            got = None
        with open(os.path.join(golden, golden_name(vid)), "rb") as fh:
            want = fh.read()
        if rc != 0 or got != want:
            res.fail("report %s: exit %r, JSON %s" % (
                vid, rc, "missing" if got is None else
                "matches" if got == want else "differs from golden"))


# --- spectra-small-warm --------------------------------------------------

def warm_ids(q):
    return [vid for vid in q.cli.REGISTRY if vid not in WARM_EXCLUDED]


def warm_setup(q):
    return {vid: q.cli.REGISTRY[vid].provider() for vid in warm_ids(q)}


def warm_goldens(ids):
    out = {}
    for vid in ids:
        with open(os.path.join(HERE, "golden", "reports", golden_name(vid)),
                  encoding="utf-8") as fh:
            out[vid] = json.load(fh)["spectrum"]
    return out


def warm_pass(q, rings, golden, order, res):
    report = q.spectrum.quantum_spectrum_report
    done = []
    for vid in order:
        t0 = clock()
        try:
            r = report(rings[vid])
        except Exception as e:  # counted as a failed operation
            r = e
        res.op(t0, clock(), [vid], heaviest=vid == W2_HEAVIEST)
        done.append((vid, r))
    res.end_pass()
    for vid, r in done:
        res.attempted += 1
        if isinstance(r, Exception):
            res.fail("report %s raised %r" % (vid, r))
        elif json.loads(json.dumps(r.to_dict())) != golden[vid]:
            res.fail("report %s differs from golden" % vid)


def warm_loop(q, spec, rings, res, passes=None):
    golden = warm_goldens(rings)
    rng = random.Random("warm/%d" % spec["seed"])
    ids = sorted(rings)
    deadline = clock() + spec["seconds"]
    count = 0
    while (count < passes) if passes is not None else (clock() < deadline):
        order = list(ids)
        rng.shuffle(order)
        warm_pass(q, rings, golden, order, res)
        count += 1


# --- ext-bwb -------------------------------------------------------------

def table_str(table):
    """Canonical text of one decided Ext table; '-' when it vanishes."""
    if table is None:
        return "?"
    if not table:
        return "-"
    return ",".join("%d:%d" % (deg, dim) for deg, dim in sorted(table.items()))


def serre_dual(text, dim):
    if text in ("?", "-"):
        return text
    table = {}
    for item in text.split(","):
        deg, d = item.split(":")
        table[dim - int(deg)] = int(d)
    return table_str(table)


def parse_cli_check(text, coll):
    """Per-pair results from the printed verdict of ``check --bwb``, or
    None when the printout is not a complete verdict."""
    objs = extgen.objects(coll)
    labels = [extgen.label(d, t) for d, t in objs]
    index = {lab: i for i, lab in enumerate(labels)}
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("exceptionality via ")]
    want = ("%d objects, %d ordered pairs"
            % (len(objs), len(objs) * (len(objs) - 1) // 2))
    if len(head) != 1 or not head[0].endswith(want):
        return None
    out = {}
    for ln in lines:
        ln = ln.strip()
        if ln.startswith("[fail] Ext("):
            what, table = ln[len("[fail] Ext("):].split(") nonzero: ", 1)
            src, dst = what.split(", ")
            out[(index[src], index[dst])] = table_str(
                ast.literal_eval(table))
        elif ln.startswith("[fail] "):
            obj, table = ln[len("[fail] "):].split(" is not exceptional: ", 1)
            out[(index[obj], index[obj])] = table_str(ast.literal_eval(table))
        elif ln.startswith("[undecided] "):
            what = ln[len("[undecided] "):].split(": the vanishing", 1)[0]
            if what.startswith("Ext("):
                src, dst = what[len("Ext("):-1].split(", ")
                out[(index[src], index[dst])] = "?"
            else:
                out[(index[what], index[what])] = "?"
    return out


def verdict_results(verdict, coll):
    labels = [extgen.label(d, t) for d, t in extgen.objects(coll)]
    if list(verdict.objects) != labels:
        return None
    index = {lab: i for i, lab in enumerate(labels)}
    out = {}
    for f in verdict.failures:
        key = ((index[f["object"]],) * 2 if f["kind"] == "exceptional"
               else (index[f["source"]], index[f["target"]]))
        out[key] = table_str(f["table"])
    for f in verdict.inconclusive:
        key = ((index[f["object"]],) * 2 if f["kind"] == "exceptional"
               else (index[f["source"]], index[f["target"]]))
        out[key] = "?"
    return out


def ext_pass(q, batch, res, main, golden, tracer=None):
    bwb = q.bwb
    results = {}
    broken = []
    for c in batch["collections"]:
        pairs = extgen.collection_pairs(c)
        if tracer is not None:
            tracer.op = c["id"]
        if c["route"] == "cli":
            rc, text, t0, t1 = call_cli(main, ["check", c["file"], "--bwb"])
            try:
                found = parse_cli_check(text, c) if rc in (0, 1) else None
            except (KeyError, ValueError, SyntaxError):
                found = None
            if found is not None and (rc == 0) != (not found):
                found = None
        else:
            t0 = clock()
            try:
                coll = q.lefschetz.load_collection(c["file"])
                if bwb.collection_backend(coll.variety) == "grassmannian":
                    verdict = bwb.check_collection(coll)
                else:
                    verdict = bwb.check_collection_hyperplane(coll)
            except Exception as e:  # counted as failed operations
                verdict = e
            t1 = clock()
            try:
                found = (None if isinstance(verdict, Exception)
                         else verdict_results(verdict, c))
            except KeyError:
                found = None
        # the pairs of one call share its time
        res.op(t0, t1, ["%s/%d,%d" % (c["id"], b, a) for b, a in pairs],
               heaviest=c["id"] == extgen.HEAVIEST)
        for b, a in pairs:
            key = "%s/%d,%d" % (c["id"], b, a)
            if found is None:
                broken.append(key)
                results[key] = "!"
            else:
                results[key] = found.get((b, a), "0:1" if a == b else "-")
    for p in batch["pairs"]:
        if tracer is not None:
            tracer.op = p["id"]
        k, n = p["k"], p["n"]
        t0 = clock()
        try:
            E = bwb.parse_bundle(p["E"], k, n)
            F = bwb.parse_bundle(p["F"], k, n)
            if p["route"] == "grassmannian":
                text = table_str(bwb.ext_table(E, F))
            else:
                text = table_str(bwb.ext_hyperplane(E, F)["table"])
        except Exception:  # counted as a failed operation
            text = "!"
            broken.append(p["id"])
        res.op(t0, clock(), [p["id"]])
        results[p["id"]] = text
    res.end_pass()
    check_ext(batch, results, broken, res, golden)
    return results


def load_ext_golden(seed):
    """{operation id: result} captured at the benchmark's commit, or None
    for a seed that has no golden."""
    if seed != SHIPPED_SEED:
        return None
    golden = {}
    with open(os.path.join(HERE, "golden", "ext_bwb_seed%d.txt" % seed),
              encoding="utf-8") as fh:
        for line in fh:
            key, text = line.rstrip("\n").rsplit("\t", 1)
            golden[key] = text
    return golden


def check_ext(batch, results, broken, res, golden):
    bad = set(broken)
    heavy = [key for key in results
             if key.startswith(extgen.HEAVIEST + "/")
             and not key.endswith("~")]
    for key in heavy:
        b, a = key.rsplit("/", 1)[1].split(",")
        # Kuznetsov: the collection is exceptional, decided on every pair
        if results[key] != ("0:1" if a == b else "-"):
            bad.add(key)
    for p in batch["pairs"]:
        of = p["of"]
        if of is None:
            continue
        mine, theirs = results[p["id"]], results[of]
        if "?" in (mine, theirs):
            continue
        if serre_dual(theirs, p["dim"]) != mine:
            bad.update((p["id"], of))
    if golden is not None:
        if set(golden) != set(results):
            res.fail("ext-bwb: operations differ from the golden list")
        for key, text in results.items():
            want = golden.get(key)
            # an undecided golden pair may become decided
            if want is None or (want != "?" and want != text):
                bad.add(key)
    res.attempted += len(results)
    for key in sorted(bad):
        res.fail("ext pair %s: %s" % (key, results.get(key)))


# --- crosscheck ----------------------------------------------------------

def crosscheck_pass(q, res, main, tracer=None):
    for m in SELFTEST_MODULES:
        out = Stamped()
        if tracer is not None:
            tracer.op = m
        rc, text, t0, t1 = call_cli(main, ["selftest", "--filter", m], out)
        rows = list(zip([t0] + out.stamps[:-1], out.stamps))
        res.op(t0, t1, ["%s/%d" % (m, i) for i in range(len(rows))] or [m],
               parts=rows or None, heaviest=m == W4_HEAVIEST)
        rows = [ln for ln in text.splitlines()
                if ln.startswith("[pass]") or ln.startswith("[fail]")]
        passed = sum(1 for ln in rows if ln.startswith("[pass]"))
        res.attempted += max(len(rows), 1)
        summary = "selftest: %d passed, 0 failed" % len(rows)
        if rc != 0 or not rows or summary not in text:
            res.fail("selftest %s: exit %r, %d of %d rows pass"
                     % (m, rc, passed, len(rows)), max(len(rows) - passed, 1))
    res.end_pass()


# --- driver --------------------------------------------------------------

class Q:
    """The qspectra modules, looked up at call time so that the traced
    run's replacements are the ones called."""

    def __init__(self):
        import qspectra.bwb
        import qspectra.cli
        import qspectra.lefschetz
        import qspectra.schur
        import qspectra.spectrum
        self.cli = qspectra.cli
        self.bwb = qspectra.bwb
        self.lefschetz = qspectra.lefschetz
        self.schur = qspectra.schur
        self.spectrum = qspectra.spectrum


def lr_cache(q):
    """(hits, misses) so far of the Littlewood-Richardson cache behind
    schur.lr_coeffs, read from its own counters; never cleared here."""
    info = getattr(q.schur, "_lr_table", None)
    if info is None or not hasattr(info, "cache_info"):
        return 0, 0
    ci = info.cache_info()
    return ci.hits, ci.misses


def body(q, spec, res, setup, main, tracer=None):
    w = spec["workload"]
    if w == "spectra-registry":
        registry_pass(q, spec, res, main, tracer)
    elif w == "spectra-small-warm":
        warm_loop(q, spec, setup, res,
                  passes=W2_TRACE_PASSES if spec["mode"] != "loop" else None)
    elif w == "ext-bwb":
        with open(spec["batch"], encoding="utf-8") as fh:
            batch = json.load(fh)
        ext_pass(q, batch, res, main, load_ext_golden(spec["seed"]), tracer)
    else:
        crosscheck_pass(q, res, main, tracer)


def traced_body(q, spec, res, setup):
    """Per-layer metrics of the traced body.  The warm workload alternates
    untraced and traced blocks of passes in its one process; the others
    trace one body and leave the untraced ones to separate workers."""
    import tracer as tracing
    warm = spec["workload"] == "spectra-small-warm"
    untraced, traced, runs = [], [], []
    for _ in range(W2_TRACE_ROUNDS if warm else 1):
        if warm:
            body(q, spec, res, setup, q.cli.main)
            untraced.append(statistics.median(res.passes))
            res.passes, res.raw_passes = [], []
        tr = tracing.Tracer()
        tr.install()
        hits0, misses0 = lr_cache(q)
        body(q, spec, res, setup, tr.wrap("cli.main", q.cli.main), tr)
        hits1, misses1 = lr_cache(q)
        tr.uninstall()
        traced.append(statistics.median(res.passes))
        # span times in calibrated seconds too, at the traced body's scale
        scale = sum(res.passes) / sum(res.raw_passes)
        per = W2_TRACE_PASSES if warm else 1  # per pass, like wall_s
        layers = {
            k: v if k in tracing.NOT_ADDITIVE
            else v * (scale if tracing.unit(k) == "s" else 1.0) / per
            for k, v in tracing.layer_metrics(
                tr, hits1 - hits0, misses1 - misses0).items()}
        runs.append(layers)
        tr.write_spans(spec["spans"])
        res.passes, res.raw_passes = [], []
    return {"untraced_walls": untraced, "traced_walls": traced,
            "layers": tracing.mean_metrics(runs)}


def run(spec, sampler):
    root = spec["root"]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qspectra.cli
    if not os.path.abspath(qspectra.cli.__file__).startswith(src + os.sep):
        print("qspectra imported from %s, not from %s"
              % (qspectra.cli.__file__, src), file=sys.stderr)
        return 3
    q = Q()
    setup = warm_setup(q) if spec["workload"] == "spectra-small-warm" else None
    # set-up in calibrated seconds is (spawn to READY - handler) * scale
    now = clock()
    sys.stdout.write("READY %r %r\n" % (
        sampler.scale(sampler.created, now),
        sampler.handler_seconds(sampler.created, now)))
    sys.stdout.flush()
    if spec["mode"] == "setup":
        return 0

    res = Result(sampler)
    out = {}
    main = q.cli.main
    if spec["mode"] == "trace":
        out.update(traced_body(q, spec, res, setup))
    else:
        body(q, spec, res, setup, main)
    out.update(res.to_dict())
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    # sampling starts first, so that set-up is calibrated too
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sampler = calibrate.Sampler(PROBE[spec["workload"]])
    try:
        code = run(spec, sampler)
    finally:
        sampler.stop()
    sys.exit(code)
