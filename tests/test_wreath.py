import json
import pathlib
import re
from fractions import Fraction

import pytest

from greenrefl import kostka, linalg
from greenrefl.combinatorics import (
    CharParam,
    ClassParam,
    GroupParams,
    ep_str,
    partition_similarity_classes,
    partitions,
)
from greenrefl.exact_arith import TPoly, TRat
from greenrefl.oracle import BruteForceGroup
from greenrefl.symfunc import Level, as_fractions, level_for
from greenrefl.wreath import (
    char_table,
    hl_data,
    level_char_table,
    z_series,
)

from schur_gram import scalar_from_p, schur_gram, zero_rat
from test_symfunc import mn_character, schur_rows

P = lambda *comps: tuple(tuple(c) for c in comps)


# -- classical Kostka-Foulkes oracle (charge statistic) ------------------------


def ssyt_of_weight(shape, weight):
    """Semistandard tableaux of given shape and content, as row tuples."""
    rows = []

    def rec(partial, remaining):
        ri = len(partial)
        if ri == len(shape):
            if all(r == 0 for r in remaining):
                rows.append(tuple(partial))
            return
        rlen = shape[ri]
        above = partial[ri - 1] if ri else None

        def fill(row):
            pos = len(row)
            if pos == rlen:
                rem = list(remaining)
                ok = True
                for v in row:
                    rem[v] -= 1
                    if rem[v] < 0:
                        ok = False
                        break
                if ok:
                    rec(partial + [tuple(row)], tuple(rem))
                return
            lo = row[pos - 1] if pos else 0
            if above is not None:
                lo = max(lo, above[pos] + 1)
            for v in range(lo, len(weight)):
                fill(row + [v])

        fill([])

    rec([], tuple(weight))
    return rows


def charge(word):
    """Charge of a word with partition content (Lascoux-Schuetzenberger):
    extract standard subwords scanning right-to-left cyclically; within a
    standard subword the index grows by one whenever the next letter sits
    to the right of the previous one."""
    word = list(word)
    total = 0
    while word:
        n_letters = max(word) + 1
        taken = set()
        pos_list = []
        cur = len(word) - 1
        for target in range(n_letters):
            for _ in range(len(word)):
                if cur not in taken and word[cur] == target:
                    taken.add(cur)
                    pos_list.append(cur)
                    break
                cur = (cur - 1) % len(word)
            else:
                raise ValueError("content is not a partition")
            cur = (cur - 1) % len(word)
        idx = 0
        for a, b in zip(pos_list, pos_list[1:]):
            if b > a:
                idx += 1
            total += idx
        for i in sorted(taken, reverse=True):
            word.pop(i)
    return total


def kostka_foulkes_charge(lam, mu):
    """K_(lam,mu)(t) = sum over SSYT of shape lam, content mu of t^charge."""
    coeffs = {}
    for tab in ssyt_of_weight(lam, mu):
        word = []
        for row in reversed(tab):
            word.extend(row)
        c = charge(word)
        coeffs[c] = coeffs.get(c, 0) + 1
    return coeffs


# -- character tables -----------------------------------------------------------


def test_char_table_s3():
    table = char_table(1, 3)
    lv = table.level
    for lam in partitions(3):
        for mu in partitions(3):
            assert table.value(P(lam), P(mu)) == TRat.rational(
                mn_character(lam, mu), 1
            )
    assert table.value(P((2, 1)), P((1, 1, 1))) == TRat.rational(2, 1)
    assert table.value(P((2, 1)), P((2, 1))) == TRat.rational(0, 1)
    assert table.value(P((2, 1)), P((3,))) == TRat.rational(-1, 1)


def test_char_table_e2_n1():
    table = char_table(2, 1)
    a, b = P((1,), ()), P((), (1,))
    one = TRat.rational(1, 2)
    assert table.value(a, a) == one and table.value(a, b) == one
    assert table.value(b, a) == one and table.value(b, b) == -one


def test_trivial_character_row():
    for e, n in [(2, 2), (3, 2), (2, 3)]:
        table = char_table(e, n)
        triv = ((n,),) + ((),) * (e - 1)
        for beta in table.partitions:
            assert table.value(triv, beta) == table.level.one


def test_char_table_orthogonality():
    levels = [
        level_for(e, n)
        for e, n in [(1, 3), (2, 2), (3, 2), (4, 2), (6, 3), (3, 4), (2, 5)]
    ]
    levels.append(Level(6, 2, 3, 2))
    for lv in levels:
        chi = [[v.to_cyc() for v in row] for row in level_char_table(lv).matrix.entries]
        cols = [list(col) for col in zip(*chi)]
        field = lv.field
        z = [lv.z_int(beta) for beta in lv.partitions]

        def pairing(u, v, weights):
            acc = field.zero
            for x, y, w in zip(u, v, weights):
                if not x.is_zero() and not y.is_zero():
                    acc = acc + x * y.conjugate() * w
            return acc

        # column orthogonality with centralizer orders
        ones = [1] * lv.size
        for b1 in range(lv.size):
            for b2 in range(b1, lv.size):
                got = pairing(cols[b1], cols[b2], ones)
                assert got == field.from_rational(z[b1] if b1 == b2 else 0), (lv, b1, b2)
        # row orthogonality: sum over classes of chi_a conj(chi_a') / z_beta
        inv_z = [Fraction(1, c) for c in z]
        for a1 in range(lv.size):
            for a2 in range(a1, lv.size):
                got = pairing(chi[a1], chi[a2], inv_z)
                assert got == (field.one if a1 == a2 else field.zero), (lv, a1, a2)


def brute_force_problems(e, n, conjugate=False):
    """The Dixon table's verdict on the table of G(e,1,n), or on its complex
    conjugate; the Dixon table shares no code with the symmetric-function route."""
    table = char_table(e, n)
    entries = [[v.to_cyc() for v in row] for row in table.matrix.entries]
    if conjugate:
        entries = [[v.conjugate() for v in row] for row in entries]
    rows = [CharParam(alpha, 0) for alpha in table.partitions]
    cols = [ClassParam(beta, 0) for beta in table.partitions]
    return BruteForceGroup(GroupParams(e, 1, n)).table_problems(rows, cols, entries)


def test_char_table_matches_brute_force():
    for e, n in [(2, 3), (3, 2)]:
        assert brute_force_problems(e, n) == [], (e, n)


def test_linear_character_tells_the_table_from_its_conjugate():
    # alpha = (();(n);();...) is the linear character w -> zeta^(sum of the
    # colours of w).  A table conjugated as a whole still has the Dixon rows,
    # but not this character on a class with a non-real value
    for e, n in [(3, 2), (4, 2), (6, 2), (3, 3)]:
        assert brute_force_problems(e, n) == [], (e, n)
        problems = brute_force_problems(e, n, conjugate=True)
        linear = f"the rows of {ep_str(((), (n,)) + ((),) * (e - 2))} are not its character"
        assert any(m.startswith(linear) for m in problems), (e, n, problems)
        assert "the rows differ from the Dixon table" not in problems


def test_z_series_examples():
    f = z_series(P((1,), ()))
    lv = level_for(2, 1)
    t = TRat.t(lv.field)
    one = lv.one
    two = TRat.rational(2, 2)
    assert f == two / (one - t)
    f2 = z_series(P((1,), (1,)))
    four = TRat.rational(4, 2)
    assert f2 == four / ((one - t) * (one + t))
    lv1 = level_for(1, 1)
    assert z_series(P((1,))) == lv1.one / (lv1.one - TRat.t(lv1.field))


# -- Hall-Littlewood functions ---------------------------------------------------


def test_hl_top_class_is_schur():
    for e, n, r in [(1, 3, 1), (2, 2, 2), (3, 2, 2)]:
        lv = level_for(e, n)
        data = hl_data(lv, r)
        top = data.classes[0]
        for zi in top:
            alpha = data.order[zi]
            for c, v in enumerate(data.sp[zi]):
                expected = lv.one if lv.partitions[c] == alpha else zero_rat(lv)
                assert v == expected
                assert data.sm[zi][c] == expected


def test_hl_specialization_at_zero():
    # P(x; 0) = s: every Schur coefficient is regular at t=0 and the value
    # at t=0 collapses to the unit vector
    for e, n, r in [(1, 3, 1), (2, 2, 2), (3, 3, 2)]:
        lv = level_for(e, n)
        data = hl_data(lv, r)
        for i, alpha in enumerate(data.order):
            for rows in (data.sp, data.sm):
                for c, v in enumerate(rows[i]):
                    val = v.eval_zero()
                    if lv.partitions[c] == alpha:
                        assert val.is_one()
                    else:
                        assert val.is_zero()


def test_hl_triangularity():
    # coefficient of s_beta in P_z vanishes unless beta is z or lies in a
    # strictly earlier... later class (beta strictly succeeds z in the order)
    for e, n, r in [(2, 2, 2), (3, 2, 2), (1, 4, 2)]:
        lv = level_for(e, n)
        data = hl_data(lv, r)
        class_of = {}
        for ci, cls in enumerate(data.classes):
            for zi in cls:
                class_of[data.order[zi]] = ci
        for i, alpha in enumerate(data.order):
            ca = class_of[alpha]
            for rows in (data.sp, data.sm):
                for c, v in enumerate(rows[i]):
                    beta = lv.partitions[c]
                    if v.is_zero():
                        continue
                    if beta == alpha:
                        assert v == lv.one
                    else:
                        assert class_of[beta] < ca, (alpha, beta)


def test_hl_orthogonality_and_duality():
    for e, n, r in [(2, 2, 2), (3, 2, 2), (2, 3, 1), (3, 3, 2)]:
        lv = level_for(e, n)
        data = hl_data(lv, r)
        class_of = {}
        for ci, cls in enumerate(data.classes):
            for zi in cls:
                class_of[zi] = ci
        size = len(data.order)
        s_rows = schur_rows(lv)
        pp, pm, qm_p, qp_p = (
            linalg.mat_mul(rows, s_rows) for rows in (data.sp, data.sm, data.qm, data.qp)
        )
        # <P+_z, P-_z'> = 0 unless similar
        for i in range(size):
            for j in range(size):
                got = scalar_from_p(lv, pp[i], pm[j])
                if class_of[i] != class_of[j]:
                    assert got.is_zero(), (data.order[i], data.order[j])
        # <P+_z, Q-_z'> = delta and <Q+_z, P-_z'> = delta
        for i in range(size):
            for j in range(size):
                d1 = scalar_from_p(lv, pp[i], qm_p[j])
                d2 = scalar_from_p(lv, qp_p[i], pm[j])
                want = lv.one if i == j else zero_rat(lv)
                assert d1 == want and d2 == want, (i, j)


def test_kostka_classical():
    # e = 1: Kostka matrix entries match the charge-statistic oracle
    for n, r in [(2, 1), (3, 1)]:
        lv = level_for(1, n)
        mat = kostka(1, n, r, -1)
        order = [tuple(l.strip("()").split(";")) for l in mat.row_labels]
        data = hl_data(lv, r)
        for i, lam_t in enumerate(data.order):
            lam = lam_t[0]
            for j, mu_t in enumerate(data.order):
                mu = mu_t[0]
                expect = kostka_foulkes_charge(lam, mu)
                poly = mat.entries[i][j]
                assert poly.is_polynomial(), (lam, mu)
                got = {
                    d: c.to_fraction()
                    for d, c in enumerate(poly.num.coeffs)
                    if not c.is_zero()
                }
                assert got == {k: Fraction(v) for k, v in expect.items()}, (lam, mu)


def test_kostka_diagonal_blocks():
    for e, n, r, sign in [(2, 2, 2, -1), (3, 2, 2, +1), (3, 3, 2, -1)]:
        lv = level_for(e, n)
        mat = kostka(e, n, r, sign)
        data = hl_data(lv, r)
        class_of = {}
        for ci, cls in enumerate(data.classes):
            for zi in cls:
                class_of[zi] = ci
        for i in range(len(data.order)):
            for j in range(len(data.order)):
                v = mat.entries[i][j]
                if i == j:
                    assert v == lv.one
                elif class_of[i] == class_of[j]:
                    assert v.is_zero()
                elif not v.is_zero():
                    assert class_of[j] < class_of[i]


def test_dual_cauchy_identity():
    # sum_L Q+_L(x) conj(P-_L(y)) = kernel = sum_a q_(a,-)(x) m_a(y),
    # in the (n, n) bidegree; same with P+ / Q- swapped
    from polynomial_oracle import SymPoly, VarSpace, poly_level

    for e, n in [(1, 2), (2, 1), (2, 2)]:
        lv = level_for(e, n)
        data = hl_data(lv, 2)
        px = poly_level(lv)
        union = VarSpace(px.space.m + px.space.m)

        def build(rows, i):
            out = SymPoly.zero(px.space)
            for c, v in enumerate(rows[i]):
                if not v.is_zero():
                    out = out + px.schur(lv.partitions[c]).scale(v)
            return out

        kernel = SymPoly.zero(union)
        for alpha in lv.partitions:
            kernel = kernel + px.q_product(alpha, -1).lift(union, 0) * px.monomial(
                alpha
            ).lift(union, e)
        lhs1 = SymPoly.zero(union)
        lhs2 = SymPoly.zero(union)
        for i in range(len(data.order)):
            qp = build(data.qp, i).lift(union, 0)
            pm = build(data.sm, i).conjugate().lift(union, e)
            lhs1 = lhs1 + qp * pm
            pp = build(data.sp, i).lift(union, 0)
            qm = build(data.qm, i).conjugate().lift(union, e)
            lhs2 = lhs2 + pp * qm
        assert lhs1 == kernel, (e, n)
        assert lhs2 == kernel, (e, n)


def test_hl_cache_roundtrip(tmp_path, monkeypatch):
    # the file holds the coordinate lists of the coset's field: on
    # Level(4,2,2,2), a sub-level of G(4,2,4), phi(e') = phi(2) = 1 list per
    # entry, one fewer than the phi(4) = 2 of the level's own field
    import greenrefl.wreath as wreath_mod

    for lv in (level_for(2, 2), Level(4, 2, 2, 2)):
        root = tmp_path / str(lv.E)
        monkeypatch.setenv(wreath_mod.CACHE_ENV, str(root))
        fresh = wreath_mod._compute_hl(lv, 3)
        wreath_mod._store_cached_hl(fresh)
        files = list(root.iterdir())
        assert len(files) == 1 and files[0].name.endswith("_r3.json")
        raw = json.loads(files[0].read_text())
        entries = [x for mat in (raw["l"], raw["u"], *raw["d"]) for row in mat for x in row]
        assert {len(x) for x in entries} == {wreath_mod._coset(lv, 3).field.degree}
        loaded = wreath_mod._load_cached_hl(lv, 3)
        assert loaded.order == list(fresh.order) or tuple(loaded.order) == tuple(fresh.order)
        assert loaded.sp == fresh.sp and loaded.sm == fresh.sm
        assert loaded.qp == fresh.qp and loaded.qm == fresh.qm
        assert loaded.grams == fresh.grams
        assert loaded.a_values == fresh.a_values


def _cached_file(tmp_path, monkeypatch, lv, r):
    """Fill an empty disk cache with one level's data; clear the in-process
    cache so that hl_data reads the disk."""
    import greenrefl.wreath as wreath_mod

    monkeypatch.setenv(wreath_mod.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(wreath_mod, "_HL_CACHE", {})
    fresh = wreath_mod._compute_hl(lv, r)
    wreath_mod._store_cached_hl(fresh)
    (path,) = tmp_path.iterdir()
    return fresh, path


def _same_hl(a, b):
    # every other field of HLData is built from these
    return (a.order, a.classes, a.a_values, a.l, a.d, a.u) == (
        b.order, b.classes, b.a_values, b.l, b.d, b.u
    )


def test_hl_cache_recomputes_a_truncated_file(tmp_path, monkeypatch):
    import greenrefl.wreath as wreath_mod

    lv = level_for(2, 2)
    fresh, path = _cached_file(tmp_path, monkeypatch, lv, 2)
    assert "_v" in path.name
    text = path.read_text()
    # cut in half, and nested deeper than the JSON parser's recursion limit
    for bad in (text[: len(text) // 2], "[" * 100000 + "]" * 100000):
        path.write_text(bad)
        assert wreath_mod._load_cached_hl(lv, 2) is None
        monkeypatch.setattr(wreath_mod, "_HL_CACHE", {})
        assert _same_hl(hl_data(lv, 2), fresh)
        # the bad file was overwritten with the recomputed data
        assert path.read_text() == text
    assert _same_hl(wreath_mod._load_cached_hl(lv, 2), fresh)


def test_hl_cache_recomputes_a_file_not_block_unitriangular(tmp_path, monkeypatch):
    import greenrefl.wreath as wreath_mod

    lv = level_for(2, 2)
    fresh, path = _cached_file(tmp_path, monkeypatch, lv, 2)
    assert len(fresh.classes) > 1
    text = path.read_text()
    raw = json.loads(text)
    # u = tr(K+) is block upper unitriangular in the symbol order: its last
    # row, first column lies below the diagonal blocks, so zero in valid data
    assert not any(fresh.u[-1][0])
    raw["u"][-1][0] = [[0, 1]]
    path.write_text(json.dumps(raw))
    assert wreath_mod._load_cached_hl(lv, 2) is None
    assert _same_hl(hl_data(lv, 2), fresh)
    assert path.read_text() == text


def below_the_blocks(data):
    """(i, j) of the first nonzero K- entry below the diagonal blocks, held
    as the entry (i, j) of l."""
    class_of = [ci for ci, cls in enumerate(data.classes) for _ in cls]
    return next((i, j) for i, row in enumerate(data.km) for j, v in enumerate(row)
                if class_of[j] < class_of[i] and not v.is_zero())


def _assert_recomputed(lv, r, fresh, path, text):
    """The file is refused, hl_data recomputes the data and rewrites the
    file with the fresh bytes."""
    import greenrefl.wreath as wreath_mod

    assert wreath_mod._load_cached_hl(lv, r) is None
    assert _same_hl(hl_data(lv, r), fresh)
    assert path.read_text() == text


def seven_t_entry(entry, field):
    # a wrong value with the structure intact: shape, blocks and unit
    # diagonal are those of valid data
    return [[0, 7]] + [[] for _ in range(field.degree - 1)]


def other_field_entry(entry, field):
    # one coordinate list more than the phi(e') of the coset's field: read
    # up to phi(e') lists, the entry is the valid one and the product would
    # match
    return entry + [[5, 5]]


@pytest.mark.parametrize("alter", [seven_t_entry, other_field_entry])
def test_hl_cache_recomputes_a_file_with_a_wrong_value(tmp_path, monkeypatch, alter):
    # one K- entry below the diagonal blocks altered; only the exact
    # certificate sees it
    import greenrefl.wreath as wreath_mod

    lv = Level(2, 1, 2, 3)          # the top sub-level of G(2,2,3)
    fresh, path = _cached_file(tmp_path, monkeypatch, lv, 2)
    text = path.read_text()
    raw = json.loads(text)
    i, j = below_the_blocks(fresh)
    raw["l"][i][j] = alter(raw["l"][i][j], wreath_mod._coset(lv, 2).field)
    path.write_text(json.dumps(raw))
    _assert_recomputed(lv, 2, fresh, path, text)


def test_hl_cache_recomputes_a_file_in_another_symbol_order(tmp_path, monkeypatch):
    # the data with two partitions of a class swapped, consistent with
    # itself: the block LDU of the coset's A with those rows and columns
    # swapped.  The file holds no order, and in the symbol order of the
    # coset it fails
    import greenrefl.wreath as wreath_mod

    lv = level_for(2, 2)
    fresh, path = _cached_file(tmp_path, monkeypatch, lv, 2)
    text = path.read_text()
    b, cls = next((b, cls) for b, cls in enumerate(fresh.classes) if len(cls) > 1)
    perm = list(range(len(fresh.order)))
    perm[cls[0]], perm[cls[1]] = cls[1], cls[0]

    def swapped(mat, idx=perm):
        return [[mat[i][j] for j in idx] for i in idx]

    local = [i - cls[0] for i in perm[cls[0] : cls[-1] + 1]]
    d = [swapped(dk, local) if c == b else dk for c, dk in enumerate(fresh.d)]
    other = fresh._replace(order=[fresh.order[i] for i in perm], l=swapped(fresh.l),
                           d=d, u=swapped(fresh.u))
    alg = wreath_mod._coset(lv, 2)
    a_u, _ = alg._omega_in_u()
    assert other.order != fresh.order and not other.certified()
    assert wreath_mod.ldu_certified(alg.field, swapped(a_u), alg.blocks, other.l, other.d, other.u)
    wreath_mod._store_cached_hl(other)
    assert path.read_text() != text
    _assert_recomputed(lv, 2, fresh, path, text)


def test_hl_cache_store_survives_a_nested_store(tmp_path, monkeypatch):
    # a second writer stores the same file while the first one writes it
    import greenrefl.wreath as wreath_mod

    monkeypatch.setenv(wreath_mod.CACHE_ENV, str(tmp_path))
    lv = level_for(2, 2)
    fresh = wreath_mod._compute_hl(lv, 2)
    dump, calls = json.dump, []

    def nested(raw, handle):
        calls.append(handle)
        if len(calls) == 1:
            wreath_mod._store_cached_hl(fresh)
        dump(raw, handle)

    with monkeypatch.context() as m:
        m.setattr(json, "dump", nested)
        wreath_mod._store_cached_hl(fresh)
    assert len(calls) == 2
    (path,) = tmp_path.iterdir()        # no temporary file is left
    assert _same_hl(wreath_mod._load_cached_hl(lv, 2), fresh)


def _diagonal(raw, i, j):
    return raw["l"][0], 0


def _below(raw, i, j):
    return raw["l"][i], j


def _first_block(raw, i, j):
    return raw["d"], 0


MALFORMED = {
    # the form of TPoly.coords broken, at the first diagonal entry of l or
    # at the K- entry below the diagonal blocks
    "empty_entry": (_diagonal, lambda x: []),
    "bool_leaf": (_diagonal, lambda x: [[True]] + x[1:]),
    "float_leaf": (_diagonal, lambda x: [[1.0]] + x[1:]),
    "nan_leaf": (_below, lambda x: [[float("nan")] + x[0][1:]] + x[1:]),
    "trailing_zero": (_below, lambda x: [x[0] + [0]] + x[1:]),
    "extra_list": (_below, lambda x: x + [[]]),
    # well formed, but the first within-class Gram block doubled
    "doubled_gram_block": (_first_block, lambda x: [
        [[[2 * v for v in c] for c in entry] for entry in row] for row in x]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_hl_cache_refuses_a_malformed_file(tmp_path, monkeypatch, capsys, case):
    lv = Level(2, 1, 2, 3)          # the top sub-level of G(2,2,3)
    fresh, path = _cached_file(tmp_path, monkeypatch, lv, 2)
    text = path.read_text()
    raw = json.loads(text)
    where, alter = MALFORMED[case]
    box, key = where(raw, *below_the_blocks(fresh))
    box[key] = alter(box[key])
    path.write_text(json.dumps(raw))
    _assert_recomputed(lv, 2, fresh, path, text)
    assert str(path) in capsys.readouterr().err


def test_hl_cache_ignores_a_file_of_the_parent_format(tmp_path, monkeypatch, capsys):
    # the format version is part of the file name: a file of format 3, which
    # held TRat JSON, is never read, and neither named nor removed
    import greenrefl.wreath as wreath_mod

    lv = level_for(2, 2)
    monkeypatch.setenv(wreath_mod.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(wreath_mod, "_HL_CACHE", {})
    path = pathlib.Path(wreath_mod._cache_path(lv, 2))
    old = path.with_name(path.name.replace(f"hl_v{wreath_mod.CACHE_FORMAT}_", "hl_v3_"))
    old.write_text("garbage")
    assert _same_hl(hl_data(lv, 2), wreath_mod._compute_hl(lv, 2))
    assert capsys.readouterr().err == ""
    assert sorted(tmp_path.iterdir()) == sorted([old, path])
    assert old.read_text() == "garbage"


def symbol_order(lv, r):
    """The canonical total order of the symbols of lv at shift r, and its
    similarity-class block sizes, from the symbols themselves."""
    classes, _ = partition_similarity_classes(lv.ecols, lv.n, r)
    return [alpha for cls in classes for alpha in cls], [len(cls) for cls in classes]


def test_hl_data_matches_ldu_of_normalised_gram():
    # production reads the data off the certified block LDU of OmegaPrime
    # of the coset G(e',1,n'); the reference is the Schur Gram matrix G of
    # the level, built by its own class sum, in the order of the symbols
    # themselves.  On the levels of the grid sets, two larger twisted
    # ones and four more, phi(e) = 4 for level_for(5, 2) and
    # level_for(12, 1), at every shift r, the data equal the generic
    # elimination of G = l diag(d) u itself, every entry a canonical TRat,
    # with K+ = l and K- = conj(u)^T.  On every other level of
    # test_gepn.grid_levels(), the h > 1 sub-levels among them, at r = 2,
    # the data are the LDU (l', d', u') of A = (-1)^n' N^T, N = L G the Gram
    # numerators: transposed here, N = tr(u') ((-1)^n' tr(d')) tr(l') passes
    # the exact certificate, which makes it the block LDU of N, since that
    # is unique
    import greenrefl.wreath as wreath_mod
    from greenrefl.gepn import coset_algebra
    from test_acceptance import GRID
    from test_gepn import grid_levels

    levels = []
    # G(6,6,2) q=2 has a sub-level with h = 2; G(4,4,3) q=2 has k = 40
    for e, p, n, q in GRID + [(6, 6, 2, 2), (4, 4, 3, 2)]:
        for lv in coset_algebra(GroupParams(e, p, n, q)).levels.values():
            if lv not in levels:
                levels.append(lv)
    levels += [level_for(2, 4), level_for(5, 2), level_for(12, 1), level_for(1, 5)]
    for lv in levels:
        for r in (1, 2, 3):
            order, blocks = symbol_order(lv, r)
            got = hl_data(lv, r)
            assert got.order == order, (lv, r)
            l, d, u = linalg.block_ldu(as_fractions(*schur_gram(lv, order)), blocks)
            assert got.kp == l, (lv, r)
            assert got.km == [[x.conjugate() for x in col] for col in zip(*u)], (lv, r)
            assert got.grams == d, (lv, r)
    for lv in grid_levels():
        if lv not in levels:
            order, blocks = symbol_order(lv, 2)
            got = hl_data(lv, 2)
            assert got.order == order, lv
            nums, _ = schur_gram(lv, order)
            l, u = _transposed(lv, got.u), _transposed(lv, got.l)
            d = [_transposed(lv, dk, (-1) ** lv.n) for dk in got.d]
            assert wreath_mod.ldu_certified(lv.field, nums, blocks, l, d, u), lv


def _transposed(lv, mat, sign=1):
    """sign times the transpose of a matrix over Z[t] in coordinate lists,
    in those of the level's field."""
    field = lv.field
    return [[TPoly.from_coords(field, [[sign * v for v in c] for c in x]).coords()
             for x in col] for col in zip(*mat)]


# -- the certificate of the packed elimination -------------------------------------


def _coords(mat):
    """A matrix of TPoly in the coordinate lists that the elimination and
    the certificate take (``TPoly.coords``)."""
    return [[x.coords() for x in row] for row in mat]


def _degree(mat):
    """The largest degree of a matrix in coordinate lists."""
    return max(len(c) for row in mat for x in row for c in x) - 1


def _synthetic_ldu(e, blocks, seed):
    """Random block unitriangular l, u equal to I at t = 0, diagonal blocks
    d = I + t R over Z[t], over Q(zeta_e), and N = l diag(d) u: rational
    integer coefficients, like the Gram numerators of a level.  All four in
    coordinate lists."""
    import random

    from greenrefl.exact_arith import CycField, TPoly

    rng = random.Random(seed)
    field = CycField(e)
    size = sum(blocks)
    block_of = [b for b, s in enumerate(blocks) for _ in range(s)]
    zero, one = TPoly(field, ()), TPoly.constant(field.one)

    def poly(low):
        # three coefficients from t^low on
        coeffs = [field.from_rational(rng.choice([-2, -1, 1, 2])) for _ in range(3)]
        return TPoly(field, [field.zero] * low + coeffs)

    def unitri(lower):
        return [
            [(one if i == j else zero) if block_of[i] == block_of[j]
             else poly(1) if (block_of[i] > block_of[j]) == lower else zero
             for j in range(size)]
            for i in range(size)
        ]

    l, u = unitri(True), unitri(False)
    d = [[[(one if i == j else zero) + poly(1) for j in range(s)] for i in range(s)]
         for s in blocks]
    diag = [[zero] * size for _ in range(size)]
    start = 0
    for dk in d:
        for i, row in enumerate(dk):
            diag[start + i][start : start + len(dk)] = row
        start += len(dk)
    nums = linalg.mat_mul(linalg.mat_mul(l, diag), u)
    return field, _coords(nums), (_coords(l), [_coords(dk) for dk in d], _coords(u))


def _certificate_case(lv, r=2):
    import greenrefl.wreath as wreath_mod

    order, blocks = symbol_order(lv, r)
    nums, _ = schur_gram(lv, order)
    return nums, blocks, wreath_mod.certified_ldu(lv.field, nums, blocks, _first_prec(nums))


def _first_prec(nums):
    """The first precision that hl_data passes: 2 deg N + 2."""
    return 2 * _degree(nums) + 2


def test_certified_ldu_recovers_synthetic_factors():
    import greenrefl.wreath as wreath_mod

    for e, blocks in [(3, [2, 1, 3]), (5, [1, 2, 2]), (12, [2, 2])]:
        field, nums, factors = _synthetic_ldu(e, blocks, seed=e)
        assert wreath_mod.certified_ldu(field, nums, blocks, _first_prec(nums)) == factors, e


def test_ldu_certificate_rejects_an_altered_factor():
    import greenrefl.wreath as wreath_mod
    from greenrefl.exact_arith import TPoly

    lv = level_for(3, 3)
    field = lv.field
    nums, blocks, (l, d, u) = _certificate_case(lv)
    assert wreath_mod.ldu_certified(field, nums, blocks, l, d, u)
    size = len(nums)
    i, j = next((i, j) for i in range(size) for j in range(i) if any(l[i][j]))

    def altered(mat, a, b, value=TPoly.t_power(field, 1)):
        out = [row[:] for row in mat]
        out[a][b] = (TPoly.from_coords(field, out[a][b]) + value).coords()
        return out

    def certified(*factors):
        return wreath_mod.ldu_certified(field, nums, blocks, *factors)

    assert not certified(altered(l, i, j), d, u)
    assert not certified(l, d, altered(u, j, i))
    assert not certified(l, d[:-1] + [altered(d[-1], 0, 0)], u)
    # the structure is checked too: a unit in a strictly upper entry of l
    assert not certified(altered(l, j, i, TPoly.constant(field.one)), d, u)


def test_ldu_certificate_rejects_a_precision_below_the_output_degree():
    import greenrefl.wreath as wreath_mod

    for lv in (level_for(2, 3), level_for(3, 2)):
        nums, blocks, factors = _certificate_case(lv)
        top = max(_degree(mat) for mat in [factors[0], factors[2]] + factors[1])
        low = wreath_mod._series_ldu(lv.field, nums, blocks, top, 64)
        assert low != factors
        assert not wreath_mod.ldu_certified(lv.field, nums, blocks, *low), lv
        assert wreath_mod._series_ldu(lv.field, nums, blocks, top + 1, 64) == factors


def test_certified_ldu_retries_at_a_higher_precision(monkeypatch):
    import greenrefl.wreath as wreath_mod

    lv = level_for(3, 2)
    nums, blocks, factors = _certificate_case(lv)
    real = wreath_mod.SeriesRing
    attempts = []

    def ring(field, prec, bits):
        # the first attempt truncates everything above t^1
        attempts.append((prec, bits))
        return real(field, 2 if len(attempts) == 1 else prec, bits)

    monkeypatch.setattr(wreath_mod, "SeriesRing", ring)
    assert wreath_mod.certified_ldu(lv.field, nums, blocks, _first_prec(nums)) == factors
    (prec, bits), second = attempts
    assert second == (2 * prec, 2 * bits)


def test_ldu_certificate_catches_an_unsigned_digit_mutant(monkeypatch):
    # A ring that reads each base-2^B digit as unsigned turns every negative
    # coefficient c into 2^B + c, so its factors are wrong at every
    # precision: the certificate must reject each attempt, and
    # certified_ldu must raise after its retries.
    import greenrefl.wreath as wreath_mod
    from greenrefl.exact_arith import SeriesRing

    attempts = []

    class Unsigned(SeriesRing):
        def __init__(self, field, prec, bits):
            attempts.append((prec, bits))
            super().__init__(field, prec, bits)

        def decode(self, x):
            digit, v, coeffs = (1 << self.bits) - 1, x.c, []
            while v:
                coeffs.append(v & digit)
                v >>= self.bits
            return [coeffs] + [[] for _ in range(self.field.degree - 1)]

    cases = [_synthetic_ldu(e, blocks, seed=e) + (blocks,)
             for e, blocks in [(3, [2, 1, 3]), (5, [1, 2, 2])]]
    lv = level_for(3, 2)
    nums, blocks, factors = _certificate_case(lv)
    cases.append((lv.field, nums, factors, blocks))
    for field, nums, factors, blocks in cases:
        prec = _first_prec(nums)
        assert wreath_mod._series_ldu(field, nums, blocks, prec, 64) == factors
        monkeypatch.setattr(wreath_mod, "SeriesRing", Unsigned)
        mutant = wreath_mod._series_ldu(field, nums, blocks, prec, 64)
        assert mutant != factors
        assert not wreath_mod.ldu_certified(field, nums, blocks, *mutant), field.e
        attempts.clear()
        with pytest.raises(ArithmeticError, match="failed its certificate"):
            wreath_mod.certified_ldu(field, nums, blocks, prec)
        assert attempts == [(prec, 64), (2 * prec, 128), (4 * prec, 256)]
        monkeypatch.undo()


def test_certified_ldu_rejects_a_matrix_not_unit_at_zero():
    import greenrefl.wreath as wreath_mod
    from greenrefl.exact_arith import CycField, TPoly

    field = CycField(3)
    one, t = TPoly.constant(field.one), TPoly.t_power(field, 1)
    three = TPoly.constant(field.from_rational(3))
    zero = TPoly(field, ())
    for nums in (
        [[one, zero], [zero, three]],           # an odd pivot, not a unit
        [[one + one, t], [t, one]],             # an even pivot
        [[one, one], [zero, one]],              # unitriangular, not I
        [[t, one], [one, t]],                   # no pivot at t = 0 at all
        [[one, zero], [zero, -one]],            # mixed signs
    ):
        with pytest.raises(ValueError, match="not \\+-I at t = 0"):
            wreath_mod.certified_ldu(field, _coords(nums), [1, 1], 4)
    # a fractional coefficient has no coordinate lists: the conversion
    # names it
    half = TPoly.constant(field.from_rational(Fraction(1, 2)))
    with pytest.raises(ValueError, match="coefficient 1/2 of .* not integral"):
        wreath_mod.certified_ldu(field, _coords([[one, half * t], [zero, one]]), [1, 1], 4)
    # zeta is integral but not rational: the ring holds Z[t] only, and the
    # error names the coefficient
    zeta, name = TPoly.constant(field.zeta()), re.escape(str(field.zeta()))
    with pytest.raises(ValueError, match=f"coefficient {name} of .* not a rational integer"):
        wreath_mod.certified_ldu(field, _coords([[one, zeta * t], [zero, one]]), [1, 1], 4)


def test_hl_data_certified_sees_altered_data():
    import greenrefl.wreath as wreath_mod

    lv = level_for(2, 3)
    data = wreath_mod._compute_hl(lv, 2)
    assert data.certified()
    size = len(data.order)
    i, j = next((i, j) for i in range(size) for j in range(i) if any(data.l[i][j]))
    l = [row[:] for row in data.l]
    l[i][j] = (TPoly.from_coords(lv.field, l[i][j]) + TPoly.constant(lv.field.one)).coords()
    assert not data._replace(l=l).certified()
