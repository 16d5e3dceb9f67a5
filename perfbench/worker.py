"""One benchmark worker: a fresh interpreter that runs one job and exits.

    python3 perfbench/worker.py '<json spec>'

The spec is written by ``run.py``.  Jobs:

* ``{"job": "cli", "argv": [...], "out": PATH, "trace": bool}`` runs
  ``greenrefl.cli.main(argv + ["--out", PATH])`` once, timed;
* ``{"job": "fill", "cases": [[e, p, n, q, r], ...]}`` computes the
  Hall-Littlewood data of every level the cases use, so that a
  ``GREENREFL_CACHE`` directory set in the environment is filled.

The worker prints one JSON line: the time its imports finished (on the
system-wide monotonic clock, so the parent can subtract its spawn time), the
exit code and wall time of the job, its peak RSS, and the tracer's report.
"""

import json
import os
import resource
import sys
import time
import traceback

import greenrefl.cli

IMPORTED_AT = time.monotonic()


def run_cli(spec):
    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer().install()
    argv = list(spec["argv"]) + ["--out", spec["out"]]
    cpu = time.process_time()
    start = time.perf_counter()
    try:
        rc = greenrefl.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:          # reported as a failed case, not a crash
        traceback.print_exc()
        rc = "exception"
    wall = time.perf_counter() - start
    return {"rc": rc, "wall_s": wall, "cpu_s": time.process_time() - cpu,
            "trace": tracer.report() if tracer else None}


def run_fill(spec):
    from greenrefl.combinatorics import GroupParams
    from greenrefl.gepn import coset_algebra
    from greenrefl.wreath import hl_data

    start = time.perf_counter()
    for e, p, n, q, r in spec["cases"]:
        for level in coset_algebra(GroupParams(e, p, n, q), r).levels.values():
            hl_data(level, r)
    return {"rc": 0, "wall_s": time.perf_counter() - start, "trace": None}


def main():
    spec = json.loads(sys.argv[1])
    result = run_fill(spec) if spec["job"] == "fill" else run_cli(spec)
    result["imported_at"] = IMPORTED_AT
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # skip the interpreter's teardown of the job's object graph: it is not
    # part of the timed call and can take a second
    os._exit(0)


if __name__ == "__main__":
    main()
