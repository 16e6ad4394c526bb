"""Capture the goldens the benchmark checks against.

    python3 perfbench/capture.py

Run from the root of a checkout, at the commit whose outputs are the
reference.  Writes perfbench/golden/reports/<id>.json, the report JSON of
``qspectra report ID --json`` for every registry id, and
perfbench/golden/ext_bwb_seed<N>.txt, one line per ext-bwb operation of
the shipped seed: operation id, a tab, and the Ext table it decided
("-" when it vanishes, "?" when undecided).
"""

import contextlib
import io
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibrate  # noqa: E402
import extgen  # noqa: E402
import worker  # noqa: E402


def main():
    q = worker.Q()
    reports = os.path.join(HERE, "golden", "reports")
    os.makedirs(reports, exist_ok=True)
    for vid in q.cli.REGISTRY:
        path = os.path.join(reports, worker.golden_name(vid))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = q.cli.main(["report", vid, "--json", path])
        if rc != 0:
            raise SystemExit("report %s exited %d" % (vid, rc))
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        batch = extgen.generate(worker.SHIPPED_SEED)
        extgen.write(batch, work)
        sampler = calibrate.Sampler(worker.PROBE["ext-bwb"])
        try:
            res = worker.Result(sampler)
            results = worker.ext_pass(q, batch, res, q.cli.main, golden=None)
        finally:
            sampler.stop()
    if res.failed:
        raise SystemExit("ext-bwb checks failed: %r" % res.errors)
    path = os.path.join(HERE, "golden", "ext_bwb_seed%d.txt"
                        % worker.SHIPPED_SEED)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(results):
            fh.write("%s\t%s\n" % (key, results[key]))
    print("%d reports, %d ext-bwb operations" % (len(q.cli.REGISTRY),
                                                 len(results)))


if __name__ == "__main__":
    main()
