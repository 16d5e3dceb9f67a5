import argparse
import json

import pytest

from greenrefl import cli, gepn, wreath
from greenrefl.cli import main
from greenrefl.combinatorics import GroupParams, ep_str
from greenrefl.exact_arith import CycField, TPoly, TRat
from greenrefl.symfunc import Level, level_for
from greenrefl.wreath import LabeledMatrix, hl_data, level_char_table

from test_oracle import conjugated, phi_swapped


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_chartable_s3(capsys):
    code, out = run(capsys, "chartable", "--e", "1", "--n", "3")
    assert code == 0
    assert "(21)" in out and "-1" in out


def test_symbols_pretty_and_json(capsys):
    code, out = run(capsys, "symbols", "--e", "3", "--p", "3", "--n", "3", "--r", "2")
    assert code == 0
    assert "a = 9" in out and "(111;;)" in out
    code, out = run(
        capsys, "symbols", "--e", "3", "--p", "3", "--n", "3", "--format", "json"
    )
    data = json.loads(out)
    assert [cls["a_value"] for cls in data] == [9, 4, 3, 3, 1, 0]
    assert data[0]["members"][0]["symbol"] == [[5, 3, 1], [4, 2, 0], [4, 2, 0]]


def test_green_pretty_table1(capsys):
    code, out = run(
        capsys, "green", "--e", "3", "--p", "3", "--n", "3", "--q", "0", "--r", "2"
    )
    assert code == 0
    assert "t^9" in out
    assert "2*t^7+t^4" in out
    assert "residual" in out and "0 (exact)" in out


def test_green_twisted_coset_has_no_symmetric_presentation(capsys):
    heading = "LambdaTilde (symmetric presentation):"
    note = "LambdaTilde: no symmetric presentation for a twisted coset"
    code, out = run(capsys, "green", "--e", "2", "--p", "2", "--n", "2", "--q", "1")
    assert code == 0
    assert note in out and heading not in out
    code, out = run(
        capsys, "green", "--e", "2", "--p", "2", "--n", "2", "--q", "1", "--format", "json"
    )
    data = json.loads(out)
    assert data["lambda_symmetric"] is None and data["lambda_tilde"]["entries"]
    code, out = run(capsys, "green", "--e", "2", "--p", "2", "--n", "2")
    assert heading in out and note not in out


def test_green_json_roundtrip(capsys):
    code, out = run(
        capsys, "green", "--e", "2", "--p", "2", "--n", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["residual_zero"] is True
    entry = TRat.from_json(data["ktilde_minus"]["entries"][0][0])
    assert str(entry) == "t^2"


def test_output_deterministic(capsys):
    _, out1 = run(capsys, "green", "--e", "2", "--p", "2", "--n", "2", "--format", "json")
    _, out2 = run(capsys, "green", "--e", "2", "--p", "2", "--n", "2", "--format", "json")
    assert out1 == out2


def test_coset_chartable_csv(capsys):
    code, out = run(
        capsys, "coset-chartable", "--e", "2", "--p", "2", "--n", "2",
        "--q", "1", "--format", "csv",
    )
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 3                 # header + 2 characters
    assert lines[0].count('"') == 4        # 2 quoted class labels


def test_kostka_base_and_coset(capsys):
    code, out = run(capsys, "kostka", "--e", "1", "--n", "2", "--r", "1", "--sign", "-")
    assert code == 0
    assert "(11)" in out
    code, out = run(
        capsys, "kostka", "--e", "2", "--p", "2", "--n", "2", "--sign", "-"
    )
    assert code == 0
    assert "(1;1)'" in out


def test_hall_littlewood_recomputes_a_cache_file_with_a_wrong_value(capsys, monkeypatch, tmp_path):
    # the file of the level, with one K- value below the diagonal blocks set
    # to 7t, is refused and recomputed: the output is that of a run with no
    # cache, and stderr names the file; a missing file is silent
    from test_wreath import below_the_blocks, seven_t_entry

    argv = ("hall-littlewood", "--e", "2", "--n", "3")
    errs = []

    def fresh_run():
        monkeypatch.setattr(gepn, "_ALGEBRAS", {})
        monkeypatch.setattr(wreath, "_HL_CACHE", {})
        code = main(list(argv))
        captured = capsys.readouterr()
        errs.append(captured.err)
        return code, captured.out

    monkeypatch.delenv(wreath.CACHE_ENV, raising=False)
    cacheless = fresh_run()
    assert cacheless[0] == 0
    monkeypatch.setenv(wreath.CACHE_ENV, str(tmp_path))
    assert fresh_run() == cacheless
    lv = Level(2, 1, 2, 3)
    path = wreath._cache_path(lv, 2)
    with open(path) as handle:
        raw = json.load(handle)
    i, j = below_the_blocks(hl_data(lv, 2))
    raw["u"][j][i] = seven_t_entry(raw["u"][j][i], lv.field)
    with open(path, "w") as handle:
        json.dump(raw, handle)
    assert fresh_run() == cacheless
    assert errs == ["", "", f"greenrefl: refused the HL cache file {path}; recomputing it\n"]


def test_kostka_reads_the_green_factors_and_no_hall_littlewood_data(capsys, monkeypatch):
    # on the LDU route kostka prints two of green's factors and builds no
    # sub-level Hall-Littlewood data; G(3,3,2) q=1 falls back to the assembly
    calls = []
    real = wreath.hl_data

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(wreath, "hl_data", spy)
    for sign in "+-":
        code, _ = run(capsys, "kostka", "--e", "3", "--p", "3", "--n", "4", "--sign", sign)
        assert code == 0
    assert calls == []
    code, _ = run(capsys, "kostka", "--e", "3", "--p", "3", "--n", "2", "--q", "1")
    assert code == 0
    assert calls


def test_hall_littlewood_output(capsys):
    code, out = run(
        capsys, "hall-littlewood", "--e", "2", "--n", "2", "--r", "2", "--sign", "+"
    )
    assert code == 0
    assert "P+ in Schur coordinates" in out
    assert "Q+ in Schur coordinates" in out


def test_fake_degrees_output(capsys):
    code, out = run(capsys, "fake-degrees", "--e", "3", "--p", "3", "--n", "2")
    assert code == 0
    assert "t^3" in out      # the determinant character of the dihedral group


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--e", "2", "--p", "2", "--n", "2", "--q", "1")
    assert code == 0
    assert "FAIL" not in out
    assert "nonzero Kostka entries lie in Z>=0[t]" in out


@pytest.mark.parametrize("e, p, n, q, count", [
    (3, 3, 3, 0, "80/80"),
    (2, 2, 3, 1, "24/30"),     # the twisted coset: t^2 - t, t^3 - t^2 + t, ...
])
def test_verify_counts_the_kostka_entries_with_natural_coefficients(capsys, e, p, n, q, count):
    code, out = run(capsys, "verify", "--e", str(e), "--p", str(p), "--n", str(n), "--q", str(q))
    assert code == 0
    assert out.splitlines()[-1] == f"[info] {count} nonzero Kostka entries lie in Z>=0[t]"


def test_verify_skips_the_oracle_table_for_a_twisted_coset(capsys, monkeypatch):
    line = "coset table matches the brute-force character table"
    fake = "fake degrees are polynomials with natural coefficients"
    centralizers = "centralizer orders match brute force"
    code, out = run(capsys, "verify", "--e", "2", "--p", "2", "--n", "2", "--q", "1")
    assert code == 0
    assert f"[skip] {line}" in out
    assert f"[skip] {fake}" in out
    code, out = run(capsys, "verify", "--e", "2", "--p", "2", "--n", "2")
    assert code == 0
    assert f"[  ok] {line}" in out
    assert f"[  ok] {fake}" in out
    assert f"[  ok] {centralizers}" in out
    # above the size cap the brute-force checks show up as skipped too
    # (cmd_verify reads the cap off the oracle module, loaded only for verify)
    from greenrefl import oracle

    monkeypatch.setattr(oracle, "SIZE_CAP", 3)  # |G(2,2,2)| = 4
    code, out = run(capsys, "verify", "--e", "2", "--p", "2", "--n", "2")
    assert code == 0
    assert f"[skip] {line}" in out
    assert f"[skip] {centralizers}" in out
    assert f"[  ok] {fake}" in out


def test_verify_reports_the_ldu_certificate(capsys, monkeypatch):
    from greenrefl import wreath
    from greenrefl.symfunc import level_for

    line = "every sub-level Hall-Littlewood LDU passes the exact L D U = N certificate"
    code, out = run(capsys, "verify", "--e", "3", "--p", "3", "--n", "2")
    assert code == 0
    assert f"[  ok] {line}" in out
    # one strictly lower entry of l = K+ altered in the data hl_data hands out
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    data = wreath.hl_data(level_for(3, 2), 2)
    i, j = next((i, j) for i, row in enumerate(data.l) for j in range(i) if any(row[j]))
    one = TPoly.constant(data.level.field.one)
    data.l[i][j] = (TPoly.from_coords(data.level.field, data.l[i][j]) + one).coords()
    code, out = run(capsys, "verify", "--e", "3", "--p", "3", "--n", "2")
    assert code == 1
    assert f"[FAIL] {line}" in out


def test_verify_names_the_green_route_and_checks_it_against_the_assembly(capsys, monkeypatch):
    line = "Ktilde+- and LambdaTilde from the OmegaPrime LDU equal the Kostka assembly"
    route = "[info] green's Ktilde+- and LambdaTilde: "
    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    code, out = run(capsys, "verify", "--e", "3", "--p", "3", "--n", "3")
    assert code == 0
    assert f"[  ok] {line}" in out
    assert out.splitlines()[-2] == (
        route + "block LDU of u^m OmegaPrime(1/u) over Z[u], certified"
    )
    # the fallback is named, and leaves nothing to compare
    code, out = run(capsys, "verify", "--e", "3", "--p", "3", "--n", "2", "--q", "1")
    assert code == 1
    assert f"[skip] {line}" in out
    assert out.splitlines()[-2] == route + "Kostka assembly (OmegaPrime is not over Z[t])"
    # one strictly lower Kostka entry of the assembly altered: the LDU, which
    # green prints, no longer equals it
    gepn._ALGEBRAS.clear()
    alg = gepn.coset_algebra(GroupParams(2, 2, 3, 0))
    kmat = alg.kostka_assembled(-1)
    i, j = next((i, j) for i, row in enumerate(kmat) for j in range(i) if not row[j].is_zero())
    kmat[i][j] = kmat[i][j] + alg.one
    code, out = run(capsys, "verify", "--e", "2", "--p", "2", "--n", "3")
    assert code == 1
    assert f"[FAIL] {line}" in out
    assert "[  ok] Green factorization holds exactly" in out


@pytest.mark.parametrize("argv", [
    ("--e", "3", "--p", "3", "--n", "3"),
    ("--e", "2", "--p", "2", "--n", "3", "--q", "1"),
])
@pytest.mark.parametrize("only_lambda", [False, True])
def test_verify_fails_on_a_reversal_that_shifts_lambda(capsys, monkeypatch, argv, only_lambda):
    # The certificate of the LDU route checks u^m OmegaPrime(1/u), not the
    # printed matrices, which the read-back takes off its factors.  A
    # reversal one power of t too high shifts the printed LambdaTilde and
    # Ktilde+- by t, and the comparison with the assembly must see that.  A
    # read-back that shifts LambdaTilde alone must be seen as well: the check
    # brings D back from LambdaTilde without the read-back, which the
    # assembly's LambdaTilde shares with the route.
    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    if only_lambda:
        read_back = gepn.CosetAlgebra._read_back

        def shifted(self, *factors):
            km, lam, kp = read_back(self, *factors)
            t = TRat.t(self.field)
            return km, [[x * t for x in row] for row in lam], kp

        monkeypatch.setattr(gepn.CosetAlgebra, "_read_back", shifted)
    else:
        reversal = gepn._reversal
        monkeypatch.setattr(gepn, "_reversal", lambda poly, top: reversal(poly, top + 1))
    code, out = run(capsys, "verify", *argv)
    assert code == 1
    lines = out.splitlines()
    assert "[FAIL] Ktilde+- and LambdaTilde from the OmegaPrime LDU equal the Kostka assembly" in lines
    assert "[  ok] Green factorization holds exactly" in lines


def plus_t_off_the_diagonal(alg, mat):
    """The last row's first entry plus t: below the diagonal blocks."""
    mat[-1][0] = mat[-1][0] + TRat.t(alg.field)


def plus_one_on_the_diagonal(alg, mat):
    mat[0][0] = mat[0][0] + alg.one


@pytest.mark.parametrize("argv", [
    ("--e", "3", "--p", "3", "--n", "3"),
    ("--e", "2", "--p", "2", "--n", "3", "--q", "1"),
])
@pytest.mark.parametrize("mutate, fallback, line", [
    (plus_t_off_the_diagonal, False,
     "Ktilde+- and LambdaTilde from the OmegaPrime LDU equal the Kostka assembly"),
    # the certificate reads LambdaTilde only off the diagonal blocks, so a
    # wrong K cannot pass it
    (plus_t_off_the_diagonal, True, "Green factorization holds exactly"),
    (plus_one_on_the_diagonal, False, "transition matrices specialize to the table at t=0"),
])
def test_verify_fails_on_a_wrong_kostka_assembly(capsys, monkeypatch, argv, mutate, fallback, line):
    assembled = gepn.CosetAlgebra.kostka_assembled

    def wrong(self, sign):
        mat = [list(row) for row in assembled(self, sign)]
        mutate(self, mat)
        return mat

    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(gepn.CosetAlgebra, "kostka_assembled", wrong)
    if fallback:
        def forced(self):
            # the factors that the assembly hands in, under the one certificate
            a_u, m = self._omega_in_u()
            factors = self.assembly_ldu()
            blocks = [len(cls) for cls in self.char_classes]
            return ((*factors, m), wreath.ldu_certified(self.field, a_u, blocks, *factors),
                    "forced")

        monkeypatch.setattr(gepn.CosetAlgebra, "_ldu_factors", forced)
    code, out = run(capsys, "verify", *argv)
    assert code == 1
    assert f"[FAIL] {line}" in out.splitlines()


def test_verify_on_a_trivial_group(capsys):
    # G(3,3,1) has one element, so its Dixon table is [[1]] over Q
    code, out = run(capsys, "verify", "--e", "3", "--p", "3", "--n", "1")
    assert code == 0
    assert "[  ok] coset table matches the brute-force character table" in out


@pytest.mark.parametrize("e, p, n, wrong", [
    (3, 3, 3, phi_swapped),     # the rows of (alpha, phi) and (alpha, -phi) swapped
    (6, 2, 2, conjugated),      # every value complex-conjugated
])
def test_verify_fails_on_a_mislabelled_table(capsys, monkeypatch, e, p, n, wrong):
    # both tables have the rows of the right one, under the wrong labels
    monkeypatch.setattr(
        cli, "coset_char_table", lambda params, r: wrong(gepn.coset_char_table(params, r))
    )
    code, out = run(capsys, "verify", "--e", str(e), "--p", str(p), "--n", str(n))
    assert code == 1
    assert "[FAIL] coset table matches the brute-force character table" in out
    assert out.count("[FAIL]") == 1


def test_invalid_parameters(capsys, tmp_path):
    # each rejection of GroupParams, named in one line
    for (e, p, n, q), message in [
        ((0, 1, 2, 0), "e, p, n must be positive"),
        ((2, 0, 2, 0), "e, p, n must be positive"),
        ((2, 1, 0, 0), "e, p, n must be positive"),
        ((4, 3, 2, 0), "p=3 must divide e=4"),
        # q = -1 would run the coset sigma^2 W, which q = 2 is refused for
        ((3, 3, 2, -1), "q=-1 must be nonnegative"),
        ((4, 2, 2, 3), "q=3 must divide e=4 (or be 0)"),
        ((4, 2, 2, 2), "e/q and e/p must be coprime"),
    ]:
        with pytest.raises(SystemExit) as info:
            run(capsys, "green", "--e", str(e), "--p", str(p), "--n", str(n), "--q", str(q))
        assert str(info.value) == f"invalid parameters: {message}"
    # --out into a directory that does not exist: one line, no traceback
    target = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as info:
        run(capsys, "chartable", "--e", "2", "--n", "2", "--out", str(target))
    assert str(info.value) == f"cannot write {target}: No such file or directory"


@pytest.mark.parametrize("command, fmt", [
    ("verify", "json"), ("verify", "csv"), ("symbols", "csv"), ("fake-degrees", "csv"),
])
def test_format_offers_only_what_the_command_writes(capsys, command, fmt):
    # no silent fallback to pretty text: argparse names the error, exit 2
    with pytest.raises(SystemExit) as info:
        main([command, "--e", "2", "--p", "2", "--n", "2", "--format", fmt])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --format: invalid choice: '{fmt}'" in err


def eager_parser():
    """The command line of ``cli.build_parser`` with every sub-parser's
    arguments added at once, from the same command spec."""
    parser = argparse.ArgumentParser(prog="greenrefl", description=cli.DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, common) in cli.SUBCOMMANDS.items():
        cli.add_common(sub.add_parser(name, help=text), **common)
    return parser


def parse_outcome(parser, argv, capsys):
    """stdout, stderr, exit code and parsed arguments of one parse."""
    try:
        parsed, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        parsed, code = None, exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code, parsed


@pytest.mark.parametrize("argv", [
    ["--help"], ["green", "--help"], ["verify", "-h"], ["--e", "3", "green"],
    ["gren", "--e", "3"], ["-5", "green"], ["green", "--e", "3", "--n", "3", "--bogus"],
    [], ["green"], ["kostka", "--sign", "x", "--e", "1", "--n", "1"],
    ["verify", "--e", "2", "--n", "2", "--format", "json"],
    ["green", "--e", "3", "--p", "3", "--n", "4", "--format", "json"],
    *([name, "--help"] for name in cli.SUBCOMMANDS),
], ids=repr)
def test_lazy_parser_prints_what_an_eager_parser_prints(capsys, argv):
    lazy = parse_outcome(cli.build_parser(), argv, capsys)
    assert lazy == parse_outcome(eager_parser(), argv, capsys)
    assert lazy[0] or lazy[1] or lazy[3]


def sub_parsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices.values())


def test_top_level_help_does_not_wait_for_the_sub_parsers():
    parser, eager = cli.build_parser(), eager_parser()
    # no sub-parser holds more than its -h before it is used
    assert {len(sub._actions) for sub in sub_parsers(parser)} == {1}
    before = parser.format_help(), parser.format_usage()
    assert before == (eager.format_help(), eager.format_usage())
    # a sub-parser's first usage or help is already the full one
    assert [sub.format_usage() for sub in sub_parsers(parser)] == [
        sub.format_usage() for sub in sub_parsers(eager)]
    assert (parser.format_help(), parser.format_usage()) == before
    assert [sub.format_help() for sub in sub_parsers(cli.build_parser())] == [
        sub.format_help() for sub in sub_parsers(eager)]


def test_size_guard(capsys):
    with pytest.raises(SystemExit) as info:
        run(capsys, "chartable", "--e", "6", "--n", "5")
    assert "size guard" in str(info.value)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.json"
    code = main(
        ["chartable", "--e", "2", "--n", "1", "--format", "json", "--out", str(target)]
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["rows"] == ["(1;)", "(;1)"]


def reference_text(data):
    """The JSON text of plain to_json() data, as json.dumps writes it."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


def _hall_littlewood_json(e, n, r, sign):
    level = level_for(e, n)
    data = hl_data(level, r)
    labels = [ep_str(alpha) for alpha in data.order]
    cols = [ep_str(alpha) for alpha in level.partitions]
    blocks = [len(c) for c in data.classes]
    pq = (data.sp, data.qp) if sign > 0 else (data.sm, data.qm)
    return {key: LabeledMatrix(labels, cols, rows, blocks, None).to_json()
            for key, rows in zip("PQ", pq)}


def _fake_degrees_json(params):
    degs = gepn.fake_degrees(params)
    return {z.label(): degs[z].to_json() for z in gepn.coset_algebra(params).chars}


G = GroupParams


@pytest.mark.parametrize("argv, reference, code", [
    ("green --e 3 --p 3 --n 3", lambda: gepn.green_suite(G(3, 3, 3, 0)).to_json(), 0),
    ("green --e 2 --p 2 --n 3 --q 1", lambda: gepn.green_suite(G(2, 2, 3, 1)).to_json(), 0),
    ("green --e 6 --p 2 --n 2", lambda: gepn.green_suite(G(6, 2, 2, 0)).to_json(), 0),
    # the Kostka assembly answers, with a nonzero residual
    ("green --e 3 --p 3 --n 2 --q 1", lambda: gepn.green_suite(G(3, 3, 2, 1)).to_json(), 1),
    ("kostka --e 3 --p 3 --n 2 --q 1 --sign +",
     lambda: gepn.kostka_gepn(G(3, 3, 2, 1), 2, +1).to_json(), 0),
    ("kostka --e 3 --p 3 --n 2 --q 1 --sign -",
     lambda: gepn.kostka_gepn(G(3, 3, 2, 1), 2, -1).to_json(), 0),
    ("coset-chartable --e 6 --p 2 --n 3",
     lambda: gepn.coset_char_table(G(6, 2, 3, 0)).matrix().to_json(), 0),
    # row_blocks and col_blocks are null
    ("chartable --e 1 --n 1", lambda: level_char_table(level_for(1, 1)).matrix.to_json(), 0),
    ("hall-littlewood --e 2 --n 2 --sign +", lambda: _hall_littlewood_json(2, 2, 2, +1), 0),
    ("hall-littlewood --e 3 --n 2 --sign -", lambda: _hall_littlewood_json(3, 2, 2, -1), 0),
    ("fake-degrees --e 3 --p 3 --n 2 --q 1", lambda: _fake_degrees_json(G(3, 3, 2, 1)), 0),
])
def test_json_writer_matches_json_dumps_of_the_dicts(capsys, argv, reference, code):
    got, out = run(capsys, *argv.split(), "--format", "json")
    assert got == code
    assert out == reference_text(reference())


def test_json_writer_on_fractional_coordinates():
    field = CycField(5)
    half = field.make([2, -3, 0, 20], 4)       # 1/2, -3/4, 0, 5
    zero = TRat(TPoly(field, ()))
    f = TRat(TPoly(field, [half, field.zero, field.one]), TPoly(field, [half, field.one]))
    # the same numerators over another denominator, and 1 in two fields of degree 2
    others = [field.make([2, -3, 0, 20], 1), CycField(3).one, CycField(6).one]
    data = {"b": [zero, f, None, True, *map(TRat.from_cyc, others)], "a": (3, "x\u00e9")}
    plain = {"b": [zero.to_json(), f.to_json(), None, True,
                   *(TRat.from_cyc(v).to_json() for v in others)], "a": [3, "x\u00e9"]}
    assert cli.jdump(data) == reference_text(plain)
    # a bare CycNum (a coset table's entry) is written as its constant function of t
    bare = [half, field.zero, field.zeta(), *others]
    assert cli.jdump(bare) == reference_text([TRat.from_cyc(v).to_json() for v in bare])
