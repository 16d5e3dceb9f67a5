"""Tests of the benchmark itself.

* a short end-to-end run of every workload on tiny cases, through every
  checker and, where traced, every per-layer metric;
* every checker fed a deliberately altered output must report it, so that
  no check is a tautology;
* without the library sources the benchmark exits nonzero and prints no
  result.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from greenrefl.combinatorics import GroupParams  # noqa: E402
from greenrefl.exact_arith import TRat  # noqa: E402
from greenrefl.gepn import coset_char_table, fake_degrees, green_suite  # noqa: E402

TINY_GREEN = [(2, 2, 2, 0, 2), (2, 2, 2, 1, 2), (3, 3, 2, 0, 2), (3, 3, 2, 1, 2)]
TINY_CHARTABLE = [(3, 3, 3, 0, 2), (2, 2, 3, 0, 2)]
EXACT_COUNTS = [k for k in run.PER_LAYER if k.startswith("exact_arith.")]


def tiny_run(tmp_path, workload, cases, trace, seed=3):
    out = run.run_workload(workload, seed, 0, trace, cases=cases,
                           workdir=tmp_path / f"{workload}-{seed}")
    assert out["problems"] == []
    return out["result"]


# -- end to end --------------------------------------------------------------------


def test_green_cold_traced_end_to_end(tmp_path):
    first = tiny_run(tmp_path, "green-cold", TINY_GREEN, True, seed=3)
    second = tiny_run(tmp_path, "green-cold", TINY_GREEN, True, seed=4)
    for res in (first, second):
        # one untraced and one traced round; G(3,3,2) q=1 fails in both
        assert res["correct"] is True
        assert (res["attempted"], res["failed"]) == (8, 2)
        assert list(res["metrics"]) == list(run.PER_LAYER)
        assert res["metrics"]["wreath.hl_data.calls"]["value"] > 0
        assert res["metrics"]["wreath.hl_cache.bytes"]["value"] == 0
    for key in EXACT_COUNTS:
        assert first["metrics"][key]["value"] > 0
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"]


def test_green_warm_end_to_end(tmp_path):
    res = tiny_run(tmp_path, "green-warm", TINY_GREEN, False)
    assert res["correct"] is True
    assert (res["attempted"], res["failed"]) == (4, 1)
    assert list(res["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_green_warm_traced_reads_the_cache(tmp_path):
    res = tiny_run(tmp_path, "green-warm", TINY_GREEN[:2], True)
    assert res["metrics"]["wreath.hl_cache.bytes"]["value"] > 0


def test_chartable_traced_end_to_end(tmp_path):
    res = tiny_run(tmp_path, "chartable", TINY_CHARTABLE, True)
    assert res["correct"] is True
    assert (res["attempted"], res["failed"]) == (4, 0)
    assert res["metrics"]["wreath.hl_data.calls"]["value"] == 0
    assert res["metrics"]["symfunc.char_table.calls"]["value"] > 0


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # green-warm runs by hand only: its spread exceeds the bound (README.md)
    assert [w["name"] for w in spec["workloads"]] == ["green-cold", "chartable"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results", "traces", ".run"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chartable",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- altered outputs -----------------------------------------------------------------


def green_output(e, p, n, q, r=2):
    return json.loads(json.dumps(green_suite(GroupParams(e, p, n, q), r).to_json()))


def bump(entry):
    """The JSON of a rational function plus one."""
    value = TRat.from_json(entry)
    return (value + TRat.from_cyc(value.field.one)).to_json()


def altered(raw, key, i, j):
    out = copy.deepcopy(raw)
    out[key]["entries"][i][j] = bump(out[key]["entries"][i][j])
    return out


def degrees_by_label(e, p, n, q, r=2):
    return {z.label(): f for z, f in fake_degrees(GroupParams(e, p, n, q), r).items()}


def test_green_checkers_pass_on_program_output():
    raw = green_output(2, 2, 3, 0)
    assert checks.residual_is_zero(raw)
    assert checks.check_diagonal_blocks(raw) == []
    assert checks.check_fake_degrees(raw, degrees_by_label(2, 2, 3, 0)) == []


def test_residual_check_sees_one_changed_entry():
    raw = green_output(2, 2, 3, 0)
    last = len(raw["ktilde_minus"]["entries"]) - 1
    assert not checks.residual_is_zero(altered(raw, "ktilde_minus", last, 1))
    assert not checks.residual_is_zero(altered(raw, "omega_prime", 0, last))


def test_block_check_sees_one_changed_entry():
    raw = green_output(2, 2, 3, 0)
    assert checks.check_diagonal_blocks(altered(raw, "ktilde_minus", 0, 0)) != []
    assert checks.check_diagonal_blocks(altered(raw, "ktilde_plus", 0, 1)) != []


def test_fake_degree_check_sees_one_changed_entry():
    raw = green_output(4, 2, 2, 0)     # first similarity class of two characters
    degrees = degrees_by_label(4, 2, 2, 0)
    assert checks.check_fake_degrees(raw, degrees) == []
    below = raw["blocks"][0]
    assert checks.check_fake_degrees(altered(raw, "ktilde_minus", below, 0), degrees) != []
    assert checks.check_fake_degrees(altered(raw, "ktilde_minus", below, 1), degrees) != []


def table1_output():
    entries = [[checks.t_poly(3, cell).to_json() for cell in row] for row in checks.TABLE1]
    return {"ktilde_minus": {"rows": list(checks.TABLE1_LABELS), "entries": entries}}


def test_table1_check_sees_one_changed_entry():
    raw = table1_output()
    assert checks.check_table1(raw) == []
    # the primed characters may be listed in another order
    swapped = copy.deepcopy(raw)
    rows = swapped["ktilde_minus"]["entries"]
    rows[3], rows[4] = rows[4], rows[3]
    for row in rows:
        row[3], row[4] = row[4], row[3]
    assert checks.check_table1(swapped) == []
    assert checks.check_table1(altered(raw, "ktilde_minus", 8, 1)) != []


def test_checker_flags_a_false_success_claim():
    checker = checks.Checker()
    raw = green_output(3, 3, 2, 1)
    assert raw["residual_zero"] is False
    text = json.dumps(raw)
    assert checker.verdict("green", (3, 3, 2, 1, 2), 1, text) == (True, [])
    raw["residual_zero"] = True
    failed, problems = checker.verdict("green", (3, 3, 2, 1, 2), 0, json.dumps(raw))
    assert not failed and problems


def chartable_output(e, p, n):
    return json.loads(json.dumps(coset_char_table(GroupParams(e, p, n, 0)).matrix().to_json()))


def conjugated_row(raw):
    """The table with one non-real row replaced by its conjugate."""
    table = checks.parse_table(raw)
    for i, row in enumerate(table):
        conj = [v.conjugate() for v in row]
        if conj != row:
            out = copy.deepcopy(raw)
            out["entries"][i] = [TRat.from_cyc(v).to_json() for v in conj]
            return out
    raise AssertionError("the table is real")


def test_chartable_checks_see_a_conjugated_row():
    case = (3, 3, 3, 0, 2)
    raw = chartable_output(*case[:3])
    reference = checks.oracle_rows(GroupParams(3, 3, 3, 0), raw["cols"])
    assert checks.check_orthogonality(raw) == []
    assert checks.check_oracle(raw, reference) == []
    bad = conjugated_row(raw)
    assert checks.check_orthogonality(bad) != []
    assert checks.check_oracle(bad, reference) != []
    failed, problems = checks.Checker().verdict("coset-chartable", case, 0, json.dumps(bad))
    assert not failed and problems
