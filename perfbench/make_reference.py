"""Regenerate reference.json, the stored answers the benchmark checks against.

Usage (from the root of a checkout)::

    python3 perfbench/make_reference.py

The digests are of the library's own results on the inputs that do not depend
on the seed, so run this only when an output is meant to change, and review
the diff of reference.json. CLI digests are of the stdout of a fresh
``python -m steinerloops.cli`` process.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PATH = HERE / "reference.json"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    if not PATH.exists():
        PATH.write_text('{"sts19_orbit_reps": []}\n')
    import run
    import workloads as w

    ref = {}
    q9 = w.dc.SteinerLoop(w.loop_table(9, sorted(w.fixed_system("sts9").triples)))
    ref["sts19_orbit_reps"] = [list(r) for r in w.sc.classify(w.sc.ElemAbelian2(1), q9).orbit_reps]
    w.REFERENCE.update(ref)

    ref["analyze"] = {}
    for name in w.ANALYZE_FIXED:
        s = w.fixed_system(name)
        case = w.Case(name, s.v, sorted(s.triples), list(range(s.v)), sorted(s.triples))
        ref["analyze"][name] = w.analyze_answers(
            s, case, w.dc.veblen_points(s), w.dc.census(s), w.dc.hyperplanes(s),
            s.loop().is_associative(),
        )

    ref["classify"] = {}
    for (key, t) in w.CLASS_COUNTS:
        s = w.fixed_system(key)
        q = w.dc.SteinerLoop(w.loop_table(s.v, sorted(s.triples)))
        rep = w.sc.classify(w.sc.ElemAbelian2(t), q)
        ref["classify"][f"{key}.t{t}"] = {
            "orbit_sizes": sorted(rep.orbit_of_class.count(o) for o in range(len(rep.orbit_reps))),
            "digest": w.digest([rep.class_reps, rep.orbit_of_class, rep.orbit_reps]),
        }

    n_loop = w.catalog.fixture("sts9_loop_table")
    squares = [w.catalog.fixture("phi_11")]
    squares += list(itertools.islice(w.so.enumerate_symmetric_squares(10), w.DOUBLING_SQUARES))
    ref["doubles"] = [w.digest(list(w.so.double(n_loop, sq).triples)) for sq in squares]

    run.WORKDIR.mkdir(parents=True, exist_ok=True)
    ref["cli"] = {}
    for name, workload in w.WORKLOADS.items():
        argv = workload.cli_argv(None, run.WORKDIR)
        proc = subprocess.run(
            [sys.executable, "-m", "steinerloops.cli", *argv],
            cwd=ROOT, env=run.child_env(), capture_output=True, check=True,
        )
        ref["cli"][name] = hashlib.sha256(proc.stdout).hexdigest()

    PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
