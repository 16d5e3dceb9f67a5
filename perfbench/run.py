"""Benchmark of greenrefl: Green-function suites and coset character tables.

    python3 perfbench/run.py --workload green-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere inside a source checkout; it uses ``src/`` of the
checkout it lives in and needs nothing beyond the standard library.

Each case is one ``greenrefl`` CLI call, run in a fresh worker interpreter
(``worker.py``) so that it starts with cold in-process caches, as a command
line call does.  Workers run one after another, never two at a time.  A run
repeats whole rounds of its workload's cases (in an order drawn from
``--seed``) until ``--seconds`` have passed, then checks every output
(``checks.py``) outside the timed calls.  With ``--trace 1`` one more round
runs with the per-layer tracer of ``tracer.py`` installed in each worker.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the metrics are the
end-to-end ones without tracing and the per-layer ones with it.  Details per
case go to ``perfbench/results/`` and, when tracing, ``perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (e, p, n, q, r); README.md says why each case is there
GREEN_CASES = [
    (3, 3, 3, 0, 2),
    (2, 2, 4, 0, 2),
    (4, 2, 2, 0, 2),
    (2, 2, 3, 1, 2),
    (3, 3, 2, 1, 2),   # fails every time: nonzero residual (twisted, e >= 3)
]
CHARTABLE_CASES = [
    (3, 3, 4, 0, 2),
    (2, 2, 5, 0, 2),
    (6, 2, 3, 0, 2),
]

# name -> (CLI command, cases, fill a private GREENREFL_CACHE in set-up)
WORKLOADS = {
    "green-cold": ("green", GREEN_CASES, False),
    "green-warm": ("green", GREEN_CASES, True),
    "chartable": ("coset-chartable", CHARTABLE_CASES, False),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "wreath.hl_data.s": "s",
    "wreath.hl_data.calls": "count",
    "wreath.hl_cache.bytes": "bytes",
    "gepn.coset_table.s": "s",
    "gepn.x_matrices.s": "s",
    "gepn.lambda_matrix.s": "s",
    "gepn.kostka_assembled.s": "s",
    "gepn.omega_prime.s": "s",
    "gepn.green.self_s": "s",
    "symfunc.char_table.s": "s",
    "symfunc.char_table.calls": "count",
    "linalg.solve.s": "s",
    "linalg.solve.calls": "count",
    "linalg.mat_mul.s": "s",
    "exact_arith.TRat.add.calls": "count",
    "exact_arith.TRat.mul.calls": "count",
    "exact_arith.TPoly.gcd.calls": "count",
    "exact_arith.TPoly.divmod.calls": "count",
    "exact_arith.CycNum.mul.calls": "count",
    "cli.output.s": "s",
    "cli.output.bytes": "bytes",
    "trace.overhead_s": "s",
}

WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def case_argv(command, case):
    e, p, n, q, r = case
    return [command, "--e", str(e), "--p", str(p), "--n", str(n),
            "--q", str(q), "--r", str(r), "--format", "json"]


def worker_env(cache_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("GREENREFL_CACHE", None)
    if cache_dir is not None:
        env["GREENREFL_CACHE"] = str(cache_dir)
    return env


def spawn(spec, env):
    """Run one worker to its end; its report plus set-up and elapsed time."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s: {spec}")
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr[-2000:]}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["imported_at"] - start
    report["elapsed_s"] = elapsed
    return report


def run_workload(name, seed, seconds, trace, cases=None, workdir=None):
    """Run one workload; returns the result line plus per-case records.

    ``cases`` replaces the workload's case list (the tests use tiny ones)."""
    from checks import Checker

    command, default_cases, warm = WORKLOADS[name]
    order = list(cases if cases is not None else default_cases)
    random.Random(seed).shuffle(order)
    workdir = Path(workdir) if workdir else HERE / ".run" / str(os.getpid())
    cache_dir = workdir / "hlcache" if warm else None
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = worker_env(cache_dir)
    try:
        fill_s, cache_bytes = 0.0, 0
        if warm:
            filled = spawn({"job": "fill", "cases": order}, env)
            fill_s = filled["elapsed_s"]
            cache_bytes = sum(f.stat().st_size for f in cache_dir.iterdir())

        def run_round(traced):
            records = []
            for case in order:
                out = workdir / "out.json"
                spec = {"job": "cli", "argv": case_argv(command, case),
                        "out": str(out), "trace": traced}
                report = spawn(spec, env)
                report["case"] = case
                report["text"] = out.read_text() if out.exists() else ""
                out.unlink(missing_ok=True)
                records.append(report)
            return records

        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < seconds:
            rounds.append(run_round(False))
        traced = run_round(True) if trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checker = Checker()
    attempted = failed = 0
    problems = []
    for rec in [r for rnd in rounds for r in rnd] + traced:
        case_failed, case_problems = checker.verdict(
            command, tuple(rec["case"]), rec["rc"], rec.pop("text"))
        rec["failed"] = case_failed
        rec["problems"] = case_problems
        attempted += 1
        failed += case_failed
        problems += [f"{tuple(rec['case'])}: {p}" for p in case_problems]

    untraced = [rec for rnd in rounds for rec in rnd]
    # each case's median over the rounds, summed over the cases
    wall_s = sum(
        statistics.median(rec["wall_s"] for rec in untraced if rec["case"] == case)
        for case in order
    )
    if trace:
        totals = {}
        for rec in traced:
            for key, value in rec["trace"].items():
                totals[key] = totals.get(key, 0) + value
        totals["wreath.hl_cache.bytes"] = cache_bytes
        totals["trace.overhead_s"] = (
            sum(rec["wall_s"] for rec in traced) - wall_s)
        metrics = {k: {"value": totals[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(rec["setup_s"] for rec in untraced) + fill_s,
            "peak_rss_mb": max(rec["maxrss_kb"] for rec in untraced) / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "order": order,
        "fill_s": fill_s,
        "hl_cache_bytes": cache_bytes,
        "problems": problems,
        "rounds": rounds,
        "traced": traced,
    }


def save(run, trace):
    tag = f"{run['workload']}-seed{run['seed']}"
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    summary = {k: v for k, v in run.items() if k != "traced"}
    summary["rounds"] = [
        [{k: v for k, v in rec.items() if k != "trace"} for rec in rnd]
        for rnd in run["rounds"]
    ]
    (results / f"{tag}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    if trace:
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        per_case = [{"case": rec["case"], "wall_s": rec["wall_s"], **rec["trace"]}
                    for rec in run["traced"]]
        (traces / f"{tag}.json").write_text(json.dumps(per_case, indent=1) + "\n")


def describe(run):
    res = run["result"]
    lines = [f"{run['workload']}: attempted {res['attempted']}, failed "
             f"{res['failed']}, correct {str(res['correct']).lower()}"]
    for name, metric in res["metrics"].items():
        lines.append(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    lines += [f"  PROBLEM {p}" for p in run["problems"]]
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "greenrefl" / "cli.py").is_file():
        print(f"perfbench: no greenrefl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for run in runs:
        save(run, bool(args.trace))
        print(describe(run))
    if len(runs) == 1:
        line = runs[0]["result"]
    else:
        line = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {
                f"{r['workload']}/{k}": v
                for r in runs for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
