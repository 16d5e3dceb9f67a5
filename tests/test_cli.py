import json

import pytest

from greenrefl import cli, gepn
from greenrefl.cli import main
from greenrefl.combinatorics import GroupParams
from greenrefl.exact_arith import TRat

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
    monkeypatch.setattr(cli, "SIZE_CAP", 3)     # |G(2,2,2)| = 4
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
    # one strictly lower entry of K+ altered in the data hl_data hands out
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    data = wreath.hl_data(level_for(3, 2), 2)
    i, j = next((i, j) for i, row in enumerate(data.kp) for j in range(i)
                if not row[j].is_zero())
    data.kp[i][j] = data.kp[i][j] + data.level.one
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
        route + "block LDU of OmegaPrime at u = 1/t = 2^64 (attempt 1 of 3)"
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
    with pytest.raises(SystemExit) as info:
        run(capsys, "green", "--e", "4", "--p", "3", "--n", "2")
    assert "must divide" in str(info.value)
    with pytest.raises(SystemExit) as info:
        run(capsys, "green", "--e", "4", "--p", "2", "--n", "2", "--q", "2")
    assert "coprime" in str(info.value)
    # q = -1 would run the coset sigma^2 W, which q = 2 is refused for
    with pytest.raises(SystemExit) as info:
        run(capsys, "green", "--e", "3", "--p", "3", "--n", "2", "--q", "-1")
    assert "nonnegative" in str(info.value)
    # --out into a directory that does not exist: one line, no traceback
    target = tmp_path / "missing" / "x"
    with pytest.raises(SystemExit) as info:
        run(capsys, "chartable", "--e", "2", "--n", "2", "--out", str(target))
    assert str(info.value) == f"cannot write {target}: No such file or directory"


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
