import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

import greenrefl
from greenrefl import gepn, linalg, symfunc, wreath
from greenrefl.combinatorics import (
    CharParam,
    ClassParam,
    GroupParams,
    delta,
    enumerate_class_params,
    ep_length,
    orbit_data,
    theta,
)
from greenrefl.exact_arith import CycField, TPoly, TRat
from greenrefl.gepn import (
    CosetAlgebra,
    coset_algebra,
    coset_char_table,
    fake_degrees,
    green_suite,
    kostka_gepn,
    z_coset,
)
from greenrefl.oracle import BruteForceGroup
from greenrefl.symfunc import Level, gram_numerators, level_for

from polynomial_oracle import SymPoly, VarSpace, poly_level
from schur_gram import scalar_from_p
from substitutions import subst_power, subst_tinv
from test_acceptance import GRID
from test_oracle import conjugated, phi_swapped, table_problems
from test_symfunc import schur_rows
from tuple_oracle import kostka_direct, tuple_hall_littlewood, tuple_schur

P = lambda *comps: tuple(tuple(c) for c in comps)


# -- tuple functions through the polynomial oracle ---------------------------------


def tuple_powersum(alg, xi):
    """The tuple power sum of xi: {j: power-sum coordinates of component j},
    the components c_j(xi) p_(beta[j]) over the power terms of xi."""
    comps = {}
    for j, g, u, s in alg._power_terms(xi):
        comps[j] = [alg.zero] * alg.levels[j].size
        comps[j][g] = TRat.from_cyc(alg.field.zeta(u) * s)
    return comps


def tuple_scalar(alg, f, g):
    """(1/p) sum_j <f_j, g_j> over components given by power-sum
    coordinates, with zeta^h and t^h at component j."""
    total = alg.zero
    for j in f.keys() & g.keys():
        total = total + scalar_from_p(alg.levels[j], f[j], g[j], subst=alg.h_of[j])
    return total.scale_cyc(alg.field.from_rational(Fraction(1, alg.params.p)))


def tuple_p_coords(alg, fun):
    """The power-sum coordinates of a tuple function in Schur coordinates."""
    return {
        j: linalg.mat_mul([vec], schur_rows(alg.levels[j]))[0]
        for j, vec in fun.comps.items()
    }


def orbit_component(alg, z, j, basis_poly):
    """Component j of sum zeta^k B(theta^i(alpha) truncated at j) over the
    orbit terms (j, i, a, k) of z, with the basis function B multiplied out
    by the polynomial oracle; None when z has no term at j."""
    partitions = alg.levels[j].partitions
    out = None
    for jj, _, a, k in alg._orbit_terms(z):
        if jj == j:
            term = basis_poly(partitions[a]).scale(TRat.from_cyc(alg.field.zeta(k)))
            out = term if out is None else out + term
    return out


# -- tuple Schur and power-sum functions ----------------------------------------


def test_tuple_schur_p1():
    params = GroupParams(3, 1, 2)
    z = CharParam(P((1,), (1,), ()), 0)
    alg = coset_algebra(params)
    fun = tuple_schur(alg, z)
    assert set(fun.comps) == {0}
    vec = fun.comps[0]
    lv = alg.levels[0]
    assert vec[lv.pindex[z.alpha]].is_one()
    assert sum(0 if v.is_zero() else 1 for v in vec) == 1


def test_tuple_schur_d_type():
    # split case: theta-fixed alpha = (beta; beta) gives component 1 equal to
    # +/- s_beta(X); non-fixed alpha gives s_alpha - s_theta(alpha) at j=0
    params = GroupParams(2, 2, 2, 0)
    alg = coset_algebra(params)
    zp = CharParam(P((1,), (1,)), 0)
    zm = CharParam(P((1,), (1,)), 1)
    for z, sign in [(zp, 1), (zm, -1)]:
        fun = tuple_schur(alg, z)
        vec = fun.comps[1]
        lv1 = alg.levels[1]
        expected = TRat.rational(sign, params.e)
        assert vec[lv1.pindex[((1,),)]] == expected
    params1 = GroupParams(2, 2, 2, 1)
    alg1 = coset_algebra(params1)
    z = CharParam(P((2,), ()), 0)
    fun = tuple_schur(alg1, z)
    # orbit size 2 does not divide j = 1: only the j = 0 component survives
    assert set(fun.comps) == {0}
    vec = fun.comps[0]
    lv0 = alg1.levels[0]
    one = alg1.one
    assert vec[lv0.pindex[P((2,), ())]] == one
    assert vec[lv0.pindex[P((), (2,))]] == -one


def test_tuple_powersum_examples():
    # component 0 is always the plain power sum
    params = GroupParams(2, 2, 4, 0)
    alg = coset_algebra(params)
    xi = ClassParam(P((2, 2), ()), 1)
    fun = tuple_powersum(alg, xi)
    lv0 = alg.levels[0]
    assert fun[0][lv0.pindex[xi.beta]].is_one()
    # degenerate class: component 1 = (-1)^b 2^length p_(beta/2)(X)
    vec1 = fun[1]
    lv1 = alg.levels[1]
    val = vec1[lv1.pindex[((1, 1),)]]
    assert val == TRat.rational(-4, params.e)
    xi0 = ClassParam(P((2, 2), ()), 0)
    vec10 = tuple_powersum(alg, xi0)[1]
    assert vec10[lv1.pindex[((1, 1),)]] == TRat.rational(4, params.e)
    # non-degenerate: no component 1
    xi_nd = ClassParam(P((3, 1), ()), 0)
    assert set(tuple_powersum(alg, xi_nd)) == {0}


def test_tuple_powersum_dihedral():
    # G(e,e,2), beta = (2;-;...): component e/2 = (-1)^b 2 p_((1);...)(X)
    for e in (4, 6):
        params = GroupParams(e, e, 2, 0)
        alg = coset_algebra(params)
        for b in (0, 1):
            xi = ClassParam(((2,),) + ((),) * (e - 1), b)
            j = e // 2
            vec = tuple_powersum(alg, xi)[j]
            lv = alg.levels[j]
            target = ((1,),) + ((),) * (e // 2 - 1)
            assert vec[lv.pindex[target]] == TRat.rational(2 * (-1) ** b, e)


def test_tuple_pairing_phi_factors():
    # <q^j_(z,-), m^j_(z')>_j = phi(tau^j) conj(phi'(tau^j)) c delta_(alpha),
    # with q-basis components at sub-levels with h = 2 and h = 3; the tuple
    # q and monomial functions are the orbit sums of the oracle's
    # polynomials, with t^h in the q functions of component j
    for e, p, n in [(2, 2, 2), (3, 3, 3), (4, 2, 2), (4, 4, 2)]:
        params = GroupParams(e, p, n, 0)
        alg = coset_algebra(params)
        q_funs, m_funs = {}, {}
        for z in alg.chars:
            q_funs[z], m_funs[z] = {}, {}
            for j, level in alg.levels.items():
                oracle = poly_level(level)
                h = alg.h_of[j]
                fq = orbit_component(
                    alg, z, j, lambda a: _poly_subst(oracle.q_product(a, -1), h)
                )
                if fq is not None:
                    q_funs[z][j] = oracle.expand(fq, "powersum")
                    fm = orbit_component(alg, z, j, oracle.monomial)
                    m_funs[z][j] = oracle.expand(fm, "powersum")
        for z in alg.chars:
            fq = q_funs[z]
            for w in alg.chars:
                fm = m_funs[w]
                # tuple pairing (1/p) sum_j <,>_j must be the Kronecker delta
                got = tuple_scalar(alg, fq, fm)
                want = alg.one if z == w else alg.zero
                assert got == want, (params, z, w)
                # component pairing carries the phi factors
                if z.alpha == w.alpha:
                    c = orbit_data(z.alpha, p)[1]
                    for j, level in alg.levels.items():
                        if j % c:
                            continue
                        pairing = scalar_from_p(level, fq[j], fm[j], subst=alg.h_of[j])
                        phase = alg.field.zeta((z.phi - w.phi) * params.d * j % params.e)
                        assert pairing == TRat.from_cyc(phase * c), (params, z, w, j)


def test_tuple_powersum_orthogonality():
    # <Bp_xi, Bp_xi'> = z_xi(t) delta
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 2, 1), (3, 3, 2, 0), (4, 2, 2, 0)]:
        params = GroupParams(e, p, n, q)
        alg = coset_algebra(params)
        funs = [tuple_powersum(alg, xi) for xi in alg.class_params]
        for i, xi in enumerate(alg.class_params):
            for j in range(len(alg.class_params)):
                got = tuple_scalar(alg, funs[i], funs[j])
                if i == j:
                    assert got == alg.z_coset_series(xi), xi
                else:
                    assert got.is_zero()


# -- coset character tables -------------------------------------------------------


def test_coset_table_g222():
    params = GroupParams(2, 2, 2, 0)
    table = coset_char_table(params)
    # the Klein four-group table: one row per linear character
    rows = {tuple(str(v) for v in row) for row in table.entries}
    assert rows == {
        ("1", "1", "1", "1"),
        ("-1", "-1", "1", "1"),
        ("1", "-1", "1", "-1"),
        ("-1", "1", "1", "-1"),
    }


def test_coset_table_constants_and_orthogonality():
    for e, p, n, q in [
        (2, 2, 2, 0), (2, 2, 2, 1), (2, 2, 3, 0), (2, 2, 3, 1),
        (3, 3, 2, 0), (4, 4, 2, 0), (4, 2, 2, 0), (3, 3, 3, 0),
    ]:
        alg = coset_algebra(GroupParams(e, p, n, q))
        assert alg.orthogonality_holds(), (e, p, n, q)


def loop_orthogonality(alg):
    """(4.1.2) term by term in CycNum, each term over Fraction(1, z_xi): the
    reference of the class-sum check ``orthogonality_holds``."""
    table = alg.coset_table()
    zs = [alg.z_integer(xi) for xi in alg.class_params]
    k = len(alg.chars)
    for a in range(k):
        for b in range(k):
            acc = alg.field.zero
            for row, z in zip(table, zs):
                acc = acc + row[a] * row[b].conjugate() * Fraction(1, z)
            if acc != (alg.field.one if a == b else alg.field.zero):
                return False
    return True


def with_doubled_centralizer(params, i):
    """A fresh algebra of params whose class i has twice its centralizer order."""
    alg = CosetAlgebra(params)
    true_z, doubled = alg.z_integer, alg.class_params[i]
    alg.z_integer = lambda xi: 2 * true_z(xi) if xi == doubled else true_z(xi)
    return alg


def test_orthogonality_fails_on_a_doubled_centralizer_order():
    # every class of X(0) has a nonzero entry in some column, whose norm
    # then changes
    for params in [GroupParams(3, 3, 3, 0), GroupParams(3, 3, 2, 1), GroupParams(3, 1, 3, 0)]:
        for i in range(len(CosetAlgebra(params).class_params)):
            assert not with_doubled_centralizer(params, i).orthogonality_holds(), (params, i)


def test_orthogonality_fails_on_two_swapped_table_entries():
    alg = CosetAlgebra(GroupParams(3, 3, 3, 0))
    table = alg.coset_table()
    swaps = 0
    for row in table:
        for a in range(len(row)):
            for b in range(a):
                if row[a] != row[b]:
                    row[a], row[b] = row[b], row[a]
                    assert not alg.orthogonality_holds(), (a, b)
                    row[a], row[b] = row[b], row[a]
                    swaps += 1
    assert swaps and alg.orthogonality_holds()


def test_orthogonality_equals_the_term_by_term_sum():
    # on the true tables and with the centralizer order of the middle class
    # doubled
    for s in GRID_18:
        params = GroupParams(*s)
        alg = CosetAlgebra(params)
        assert alg.orthogonality_holds() is loop_orthogonality(alg) is True, s
        mutant = with_doubled_centralizer(params, len(alg.class_params) // 2)
        assert mutant.orthogonality_holds() is loop_orthogonality(mutant) is False, s


def test_coset_table_trivial_character_column():
    params = GroupParams(3, 3, 3, 0)
    table = coset_char_table(params)
    triv = CharParam(P((3,), (), ()), 0)
    i = table.rows.index(triv)
    assert all(v.is_one() for v in table.entries[i])


def test_coset_table_matches_oracle():
    for e, p, n in [(2, 2, 2), (2, 2, 3), (3, 3, 2), (3, 3, 3), (4, 2, 2)]:
        table = coset_char_table(GroupParams(e, p, n, 0))
        assert table_problems(table) == [], (e, p, n)


STACKED_SOLVE_CASES = (
    [(2, 1, 3, 0), (3, 1, 3, 0)]
    + [(2, 2, n, q) for n in (2, 3, 4, 5) for q in (0, 1)]
    + [(3, 3, n, q) for n in (2, 3, 4) for q in (0, 1)]
    + [(4, 2, 2, 0), (4, 2, 3, 0)]
    + [(4, 4, n, q) for n in (2, 3) for q in (0, 1, 2)]
    + [(6, 2, 2, 0), (6, 2, 3, 0)]
    + [(6, 3, n, q) for n in (2, 3) for q in (0, 2)]
    + [(6, 6, 2, q) for q in range(4)]
)


def test_linear_character_tells_the_coset_table_from_its_conjugate():
    # the restriction of w -> zeta^(sum of the colours of w) is the character
    # whose orbit holds (();(n);();...); its values are non-real here, so a
    # table conjugated as a whole fails where row-set comparisons pass
    for e, p, n in [(6, 2, 2), (6, 2, 3)]:
        table = coset_char_table(GroupParams(e, p, n, 0))
        assert table_problems(table) == [], (e, p, n)
        problems = table_problems(conjugated(table))
        assert problems, (e, p, n)
        assert all(m.startswith("the rows of") for m in problems), problems


def test_sigma_conjugation_steps_the_phi_label():
    # sigma = diag(zeta_e, 1, ..., 1) normalizes W and tensors the stabilizer
    # character by one step: chi_(alpha,phi)(sigma w sigma^-1) = chi_(alpha,phi+1)(w);
    # a table with its phi labels reversed passes every row-set comparison
    for e, p, n in [(3, 3, 3), (6, 3, 3), (6, 6, 3), (4, 4, 4)]:
        table = coset_char_table(GroupParams(e, p, n, 0))
        assert table_problems(table) == [], (e, p, n)
        problems = table_problems(phi_swapped(table))
        assert problems, (e, p, n)
        assert all(m.startswith("conjugation by sigma does not step") for m in problems)


def stacked_solve_table(alg):
    """X(0) as the transition matrix from tuple power sums to tuple Schur
    functions: both stacked in Schur coordinates, a power-sum component
    converted by p_gamma = sum_delta chi[delta][gamma] s_delta, and solved
    exactly; the solve raises unless the system is consistent, i.e. unless
    the tuple Schur functions span every tuple power sum."""

    def stack(comps, powersum=False):
        out = []
        for j in sorted(alg.levels):
            level = alg.levels[j]
            vec = comps.get(j)
            if vec is None:
                out.extend([alg.zero] * level.size)
                continue
            if powersum:
                chi = wreath.level_char_table(level).matrix.entries
                vec = [
                    sum((vec[g] * chi[d][g] for g in range(level.size)), alg.zero)
                    for d in range(level.size)
                ]
            out.extend(vec)
        return out

    s_cols = [
        list(col) for col in zip(*(stack(tuple_schur(alg, z).comps) for z in alg.chars))
    ]
    p_cols = [
        list(col)
        for col in zip(
            *(stack(tuple_powersum(alg, xi), powersum=True) for xi in alg.class_params)
        )
    ]
    xt = linalg.solve(s_cols, p_cols)               # chars x classes
    for row in xt:
        assert all(v.is_constant() for v in row)
    return [[v.to_cyc() for v in col] for col in zip(*xt)]


def test_coset_table_equals_stacked_solve():
    assert len(STACKED_SOLVE_CASES) == 34
    for e, p, n, q in STACKED_SOLVE_CASES:
        alg = coset_algebra(GroupParams(e, p, n, q))
        assert alg.coset_table() == stacked_solve_table(alg), (e, p, n, q)


def test_clear_caches_rebuilds_the_coset_table():
    caches = (gepn._ALGEBRAS, Level._cache, wreath._HL_CACHE)
    saved = [dict(cache) for cache in caches]
    try:
        params = GroupParams(3, 3, 3, 0)
        before = coset_char_table(params)
        level = coset_algebra(params).levels[0]
        greenrefl.clear_caches()
        assert not any(caches)
        after = coset_char_table(params)
        assert coset_algebra(params).levels[0] is not level
        assert after.rows == before.rows and after.cols == before.cols
        assert after.entries == before.entries
    finally:
        for cache, old in zip(caches, saved):
            cache.clear()
            cache.update(old)


def test_z_coset_vs_brute_force():
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 3, 0), (2, 2, 3, 1), (3, 3, 3, 0), (4, 2, 2, 0)]:
        params = GroupParams(e, p, n, q)
        group = BruteForceGroup(params)
        for xi in enumerate_class_params(params):
            zc = z_coset(xi, params)
            w = group.element_for_class_param(xi.beta, xi.b)
            assert zc.centralizer == group.centralizer_order(w, q), (e, p, n, q, xi)
            # series value at t=0 is the centralizer order
            assert zc.value.eval_zero().to_fraction() == zc.centralizer


def test_det_conventions_against_matrices():
    # det_M(w) and det(t id - w) computed from explicit monomial matrices
    params = GroupParams(3, 3, 3, 0)
    alg = coset_algebra(params)
    group = BruteForceGroup(params)
    field = alg.field
    t = TPoly.t_power(field, 1)

    def matrix_of(w):
        perm, colors = w
        n = len(perm)
        mat = [[TRat(TPoly(field, ())) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            mat[perm[i]][i] = TRat.from_cyc(field.zeta(colors[i]))
        return mat

    def poly_det(mat):
        n = len(mat)
        total = TRat(TPoly(field, ()))
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i):
                    if perm[j] > perm[i]:
                        sign = -sign
            term = TRat.rational(sign, field.e)
            for i in range(n):
                term = term * mat[perm[i]][i]
            total = total + term
        return total

    tid = [[TRat(TPoly(field, ())) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        tid[i][i] = TRat(t, reduce=False)
    for xi in alg.class_params:
        w = group.element_for_class_param(xi.beta, xi.b)
        mat = matrix_of(w)
        det_w = poly_det(mat)
        assert det_w == TRat.from_cyc(alg.det_of_class(xi.beta)), xi
        shifted = [
            [tid[i][j] - mat[i][j] for j in range(3)] for i in range(3)
        ]
        assert poly_det(shifted) == TRat(alg.levels[0].det_poly(xi.beta), reduce=False), xi


# -- Hall-Littlewood tuples ---------------------------------------------------------


def test_tuple_hl_at_zero_is_schur():
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 2, 1), (3, 3, 2, 0), (4, 2, 2, 0)]:
        params = GroupParams(e, p, n, q)
        alg = coset_algebra(params)
        for z in alg.chars:
            fs = tuple_schur(alg, z)
            for sign in (+1, -1):
                fp = tuple_hall_littlewood(alg, z, sign)
                assert set(fp.comps) == set(fs.comps)
                for j, vec in fp.comps.items():
                    for a, b in zip(vec, fs.comps[j]):
                        assert TRat.from_cyc(a.eval_zero()) == b


def test_tuple_hl_orthogonality():
    for e, p, n, q in [(2, 2, 2, 0), (3, 3, 2, 0), (2, 2, 3, 1)]:
        params = GroupParams(e, p, n, q)
        alg = coset_algebra(params)
        class_of = {}
        for ci, cls in enumerate(alg.char_classes):
            for z in cls:
                class_of[z] = ci
        plus, minus = (
            {z: tuple_p_coords(alg, tuple_hall_littlewood(alg, z, sign)) for z in alg.chars}
            for sign in (+1, -1)
        )
        for z in alg.chars:
            for w in alg.chars:
                if class_of[z] != class_of[w]:
                    assert tuple_scalar(alg, plus[z], minus[w]).is_zero(), (z, w)


def test_x_matrices_specialize_to_table():
    # X(+/-) = X(0) K_direct(+/-) with X(0) invertible, so X(+/-)(0) = X(0)
    # is the statement K_direct(+/-)(0) = identity
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 3, 1), (3, 3, 2, 0)]:
        params = GroupParams(e, p, n, q)
        alg = coset_algebra(params)
        for sign in (+1, -1):
            mat = kostka_direct(alg, sign)
            for i, row in enumerate(mat):
                for j, v in enumerate(row):
                    want = alg.field.one if i == j else alg.field.zero
                    assert v.eval_zero() == want, (e, p, n, q, sign, i, j)


def test_kostka_direct_equals_assembled():
    # the second list holds the sets that see each part of the assembly's
    # group-ring sum: a missing t -> t^h stretch shows only on G(2,2,4),
    # whose sub-level Level(2,2,1,2) has h = 2 and n' = 2, and the rotation
    # zeta^(k' - k) in place of zeta^(k - k') only on the twisted sets with
    # e > 2
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 2, 1), (3, 3, 2, 0), (4, 2, 2, 0)] + [
            (2, 2, 4, 0), (2, 2, 4, 1), (3, 3, 2, 1), (4, 4, 2, 1), (6, 3, 2, 2),
            (6, 6, 2, 2), (6, 2, 2, 0), (8, 4, 2, 0), (4, 4, 3, 2)]:
        params = GroupParams(e, p, n, q)
        alg = coset_algebra(params)
        for sign in (+1, -1):
            direct = kostka_direct(alg, sign)
            assembled = alg.kostka_assembled(sign)
            k = len(alg.chars)
            for i in range(k):
                for j in range(k):
                    assert direct[i][j] == assembled[i][j], (e, p, n, q, sign, i, j)


def test_twisted_coset_defect_stays_visible(capsys):
    # Known defect: for these twisted cosets the factorization does not hold
    # (the class-sum fake degrees are not polynomials there).  The residual
    # is multiplied out from the printed matrices, so it must not hold by
    # construction; a fix of the defect flips this test.
    from greenrefl.cli import main

    for e, p, n, q in [(3, 3, 2, 1), (4, 4, 2, 1)]:
        assert green_suite(GroupParams(e, p, n, q)).residual_zero is False
        argv = ["green", "--e", str(e), "--p", str(p), "--n", str(n), "--q", str(q)]
        assert main(argv) == 1
    capsys.readouterr()


def test_kostka_structure():
    for e, p, n, q in [(2, 2, 3, 0), (3, 3, 2, 0)]:
        params = GroupParams(e, p, n, q)
        alg = coset_algebra(params)
        mat = kostka_gepn(params, 2, -1)
        class_of = {}
        idx = 0
        for ci, cls in enumerate(alg.char_classes):
            for _ in cls:
                class_of[idx] = ci
                idx += 1
        k = len(alg.chars)
        for i in range(k):
            for j in range(k):
                v = mat.entries[i][j]
                if i == j:
                    assert v.is_one()
                elif class_of[i] == class_of[j]:
                    assert v.is_zero()
                elif not v.is_zero():
                    assert class_of[j] < class_of[i]


def test_cor_4_10_special_case():
    # both stabilizers trivial: K[z,z'] = sum_i zeta^(-qid) K_base[alpha, theta^i(alpha')]
    params = GroupParams(2, 2, 3, 0)
    alg = coset_algebra(params)
    level = alg.levels[0]
    order = wreath.hl_data(level, 2).order
    for sign in (+1, -1):
        k = greenrefl.kostka(2, 3, 2, sign).entries
        base = {
            (ai, aj): k[i][j] for i, ai in enumerate(order) for j, aj in enumerate(order)
        }
        mat = alg.kostka_assembled(sign)
        for zi, z in enumerate(alg.chars):
            for wi, w in enumerate(alg.chars):
                expect = base[(z.alpha, w.alpha)] + base[(z.alpha, theta(w.alpha, 2))]
                assert mat[zi][wi] == expect


# -- tuple Cauchy kernels -------------------------------------------------------------


def _poly_subst(poly, h):
    if h == 1:
        return poly
    return SymPoly(poly.space, {e: subst_power(c, h) for e, c in poly.terms.items()})


def test_tuple_cauchy_expansions():
    # component-wise kernel identities for W = G(2,2,n), n <= 2, both cosets
    for n in (1, 2):
        for q in (0, 1):
            params = GroupParams(2, 2, n, q)
            alg = coset_algebra(params)
            for j, level in alg.levels.items():
                oracle = poly_level(level)
                h = alg.h_of[j]
                d = params.d
                union = VarSpace(oracle.space.m + oracle.space.m)
                ec = level.ecols
                # Theta_q applied to the kernel, x side
                lhs = SymPoly.zero(union)
                for gamma in level.partitions:
                    for i in range(params.p):
                        w = alg.field.zeta(params.q * i * d)
                        # theta^i acts on the X-colors by shifting i*d
                        qx = _poly_subst(oracle.q_product(gamma, -1), h)
                        qx = qx.shift_colors((i * d) % ec)
                        my = oracle.monomial(gamma).lift(union, ec)
                        lhs = lhs + (qx.lift(union, 0) * my).scale(
                            TRat.from_cyc(w)
                        )
                # power-sum side: sum over classes of W with |beta| = n
                rhs = SymPoly.zero(union)
                for xi in alg.class_params:
                    vec = tuple_powersum(alg, xi).get(j)
                    if vec is None:
                        continue
                    px = SymPoly.zero(oracle.space)
                    for gi, c in enumerate(vec):
                        if not c.is_zero():
                            px = px + oracle.powersum(level.partitions[gi]).scale(c)
                    py = px.conjugate()
                    weight = alg.z_coset_series(xi).inverse()
                    rhs = rhs + (px.lift(union, 0) * py.lift(union, ec)).scale(weight)
                assert lhs == rhs, (n, q, j)


def test_tuple_cauchy_schur_side():
    # sum_z Bq_(z,-)(x) conj(Bm_z(y)) equals the power-sum kernel, per component
    for n in (1, 2):
        for q in (0, 1):
            params = GroupParams(2, 2, n, q)
            alg = coset_algebra(params)
            for j, level in alg.levels.items():
                oracle = poly_level(level)
                h = alg.h_of[j]
                ec = level.ecols
                union = VarSpace(oracle.space.m + oracle.space.m)
                lhs = SymPoly.zero(union)
                for z in alg.chars:
                    qpoly = orbit_component(
                        alg, z, j, lambda a: _poly_subst(oracle.q_product(a, -1), h)
                    )
                    if qpoly is None:
                        continue
                    mpoly = orbit_component(alg, z, j, oracle.monomial)
                    lhs = lhs + qpoly.lift(union, 0) * mpoly.conjugate().lift(union, ec)
                rhs = SymPoly.zero(union)
                for xi in alg.class_params:
                    vec = tuple_powersum(alg, xi).get(j)
                    if vec is None:
                        continue
                    px = SymPoly.zero(oracle.space)
                    for gi, c in enumerate(vec):
                        if not c.is_zero():
                            px = px + oracle.powersum(level.partitions[gi]).scale(c)
                    weight = alg.z_coset_series(xi).inverse()
                    rhs = rhs + (px.lift(union, 0) * px.conjugate().lift(union, ec)).scale(weight)
                assert lhs == rhs, (n, q, j)


# -- Green suites -----------------------------------------------------------------


def test_green_residual_small():
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 2, 1), (2, 2, 3, 0), (3, 3, 2, 0)]:
        for r in (1, 2):
            suite = green_suite(GroupParams(e, p, n, q), r)
            assert suite.residual_zero, (e, p, n, q, r)


def test_green_block_structure():
    suite = green_suite(GroupParams(3, 3, 2, 0), 2)
    k = len(suite.labels)
    blocks = suite.blocks
    starts = []
    pos = 0
    for b in blocks:
        starts.append(pos)
        pos += b
    block_of = {}
    for bi, (s, b) in enumerate(zip(starts, blocks)):
        for i in range(s, s + b):
            block_of[i] = bi
    t = TRat.t(CycField(3))
    for i in range(k):
        for j in range(k):
            km = suite.ktilde_minus.entries[i][j]
            if i == j:
                assert km == TRat(TPoly.t_power(CycField(3), suite.a_diag[i]))
            elif block_of[i] == block_of[j]:
                assert km.is_zero()
            elif not km.is_zero():
                assert block_of[j] < block_of[i]
            if block_of[i] != block_of[j]:
                assert suite.lambda_tilde.entries[i][j].is_zero()


def test_conjugation_permutation():
    # q = 0: complex conjugation permutes the table columns, an involution,
    # which moves some column of the tables with non-real values;
    # q != 0: there is no permutation and no symmetric presentation
    for e, p, n, moves in [
        (2, 2, 3, False), (4, 4, 2, False), (3, 3, 3, True), (6, 3, 2, True), (4, 2, 2, True),
    ]:
        alg = coset_algebra(GroupParams(e, p, n, 0))
        perm = alg.conjugation_permutation()
        assert sorted(perm) == list(range(len(alg.chars))), (e, p, n)
        assert all(perm[perm[z]] == z for z in perm), (e, p, n)
        assert (perm != sorted(perm)) == moves, (e, p, n)
    for e, p, n, q in [(2, 2, 3, 1), (3, 3, 2, 1), (4, 4, 2, 2), (6, 3, 2, 2)]:
        assert coset_algebra(GroupParams(e, p, n, q)).conjugation_permutation() is None
        suite = green_suite(GroupParams(e, p, n, q))
        assert suite.lambda_symmetric is None, (e, p, n, q)
        assert suite.to_json()["lambda_symmetric"] is None
        assert suite.to_json()["lambda_tilde"] == suite.lambda_tilde.to_json()


def test_conjugation_permutation_rejects_a_column_without_conjugate():
    alg = CosetAlgebra(GroupParams(3, 3, 2, 0))
    table = [list(row) for row in alg.coset_table()]
    for row in table:
        row[0] = row[0] * alg.field.zeta(1)
    alg._coset_table = table
    with pytest.raises(ArithmeticError, match="conjugate of column"):
        alg.conjugation_permutation()


def trat_degree_product(alg):
    """D = (zeta^(qd) t^(dn) - 1) prod_(i<n) (t^(ei) - 1) by TRat arithmetic."""
    params, field = alg.params, alg.field
    top = TPoly.t_power(field, params.d * params.n, field.zeta(params.q * params.d))
    out = TRat(top) - alg.one
    for i in range(1, params.n):
        out = out * (TRat.t(field, params.e * i) - alg.one)
    return out


def trat_g_poly(alg):
    """G(t) = t^(N*) D by TRat arithmetic."""
    return TRat.t(alg.field, alg.n_star()) * trat_degree_product(alg)


def per_term_omega_prime(alg):
    """OmegaPrime summed class by class, one TRat add per term."""
    table = alg.coset_table()
    g = trat_g_poly(alg)
    k = len(alg.chars)
    out = [[alg.zero] * k for _ in range(k)]
    for row, xi in zip(table, alg.class_params):
        inv_z = alg.field.from_rational(Fraction(1, alg.z_integer(xi)))
        weight = g.scale_cyc(inv_z) * TRat(
            TPoly.constant(alg.field.one), alg.levels[0].det_poly(xi.beta)
        )
        for a in range(k):
            for b in range(k):
                term = weight.scale_cyc(row[a] * row[b].conjugate())
                out[a][b] = out[a][b] + term
    return out


def per_character_fake_degrees(alg):
    """The class sum of each fake degree on its own, one TRat add per term."""
    table = alg.coset_table()
    out = {}
    for zi, z in enumerate(alg.chars):
        acc = alg.zero
        for row, xi in zip(table, alg.class_params):
            num = alg.det_of_class(xi.beta) * row[zi] * Fraction(1, alg.z_integer(xi))
            acc = acc + TRat(TPoly.constant(num), alg.levels[0].det_poly(xi.beta))
        out[z] = trat_degree_product(alg) * acc
    return out


def test_class_sum_kernel_equals_per_term_sums():
    # OmegaPrime and the fake degrees share symfunc.gram_numerators with the
    # Schur Gram matrix; here both are summed term by term instead.  In
    # Q(zeta_5) and Q(zeta_8) (phi = 4) a product of three field elements
    # reaches zeta^9, past the power table's 2 phi entries
    extra = [(3, 3, 2, 1), (4, 4, 2, 1), (6, 3, 2, 2), (5, 5, 2, 0), (8, 4, 2, 0)]
    for e, p, n, q in GRID + extra:
        alg = coset_algebra(GroupParams(e, p, n, q))
        assert alg.omega_prime() == per_term_omega_prime(alg), (e, p, n, q)
        assert alg.fake_degrees() == per_character_fake_degrees(alg), (e, p, n, q)


def test_fake_degrees_dihedral():
    for e in (3, 4, 5, 6):
        params = GroupParams(e, e, 2, 0)
        degs = fake_degrees(params)
        field = CycField(e)
        t = lambda k: TRat(TPoly.t_power(field, k))
        triv = CharParam(((2,),) + ((),) * (e - 1), 0)
        sign = CharParam(((1, 1),) + ((),) * (e - 1), 0)
        assert degs[triv] == TRat.rational(1, e)
        assert degs[sign] == t(e)
        for j in range(1, (e - 1) // 2 + 1):
            refl = CharParam(
                tuple(((1,) if k in (0, j) else ()) for k in range(e)), 0
            )
            assert degs[refl] == t(j) + t(e - j), (e, j)
        if e % 2 == 0:
            half = tuple(((1,) if k in (0, e // 2) else ()) for k in range(e))
            for phi in (0, 1):
                assert degs[CharParam(half, phi)] == t(e // 2)


def test_fake_degrees_polynomial_nonnegative():
    for e, p, n in [(2, 2, 3), (3, 3, 3), (4, 2, 2)]:
        degs = fake_degrees(GroupParams(e, p, n, 0))
        for z, f in degs.items():
            assert f.is_polynomial(), z
            for c in f.num.coeffs:
                assert c.is_rational()
                assert c.to_fraction().denominator == 1
                assert c.to_fraction() >= 0


def test_fake_degree_first_column():
    suite = green_suite(GroupParams(3, 3, 3, 0), 2)
    degs = fake_degrees(GroupParams(3, 3, 3, 0))
    for i, z in enumerate(suite.char_params):
        assert suite.ktilde_minus.entries[i][0] == degs[z], z


def test_green_suite_json_roundtrip():
    import json

    suite = green_suite(GroupParams(2, 2, 2, 0), 2)
    data = json.dumps(suite.to_json())
    parsed = json.loads(data)
    assert parsed["residual_zero"] is True
    ref = suite.ktilde_minus.entries[0][0]
    assert TRat.from_json(parsed["ktilde_minus"]["entries"][0][0]) == ref


def test_tuple_functions_p1_reduce_to_base():
    # for p = 1 the orbit of z is z alone, at the one component j = 0, with
    # no phase: the tuple functions are those of the level itself
    params = GroupParams(3, 1, 2)
    alg = coset_algebra(params)
    lv = alg.levels[0]
    z = CharParam(P((2,), (), ()), 0)
    assert alg._orbit_terms(z) == [(0, 0, lv.pindex[z.alpha], 0)]
    fun = tuple_schur(alg, z)
    assert set(fun.comps) == {0}
    assert fun.comps[0][lv.pindex[z.alpha]].is_one()
    assert sum(0 if v.is_zero() else 1 for v in fun.comps[0]) == 1
    hl = tuple_hall_littlewood(alg, z, -1)
    data = wreath.hl_data(lv, 2)
    assert hl.comps[0] == data.sm[data.index(z.alpha)]


# -- LambdaTilde and the factorization certificate against the TRat route ----------


def _transpose(mat):
    return [list(col) for col in zip(*mat)]


def trat_route(alg):
    """(LambdaTilde, residual_zero) by the TRat route: Lambda from two
    linalg.solve calls against Ktilde-/+, its diagonal blocks kept, and the
    residual Ktilde- LambdaTilde tr(Ktilde+) - OmegaPrime multiplied out
    with linalg.mat_mul."""
    km, kp, omega = gcd_ktilde(alg, -1), gcd_ktilde(alg, +1), alg.omega_prime()
    lam = _transpose(linalg.solve(kp, _transpose(linalg.solve(km, omega))))
    class_of = [ci for ci, cls in enumerate(alg.char_classes) for _ in cls]
    k = len(alg.chars)
    lam_tilde = [
        [lam[i][j] if class_of[i] == class_of[j] else alg.zero for j in range(k)]
        for i in range(k)
    ]
    product = linalg.mat_mul(linalg.mat_mul(km, lam_tilde), _transpose(kp))
    residual_zero = all(
        (product[i][j] - omega[i][j]).is_zero() for i in range(k) for j in range(k)
    )
    return lam_tilde, residual_zero


def gcd_ktilde(alg, sign):
    """Ktilde by TRat arithmetic: K(1/t) (subst_tinv) times t^(a_j)."""
    a_diag = [alg.a_of[z] for z in alg.chars]
    return [
        [v if v.is_zero() else subst_tinv(v) * TRat.t(alg.field, a) for v, a in zip(row, a_diag)]
        for row in alg.kostka_assembled(sign)
    ]


def assembly_read_back(alg):
    """(Ktilde-, LambdaTilde, Ktilde+) read back off the factors that the
    Kostka assembly hands in, with the certificate on them: what green
    prints where the assembly answers."""
    a_u, m = alg._omega_in_u()
    factors = alg.assembly_ldu()
    blocks = [len(cls) for cls in alg.char_classes]
    return alg._read_back(*factors, m), wreath.ldu_certified(alg.field, a_u, blocks, *factors)


def plus(field, x, poly):
    """The coordinate lists x (``TPoly.coords``) plus the TPoly poly."""
    return (TPoly.from_coords(field, x) + poly).coords()


# G(3,3,2) q=1, G(6,3,2) q=2 and G(6,6,2) q=2 fail the factorization
DIFFERENTIAL_SETS = GRID + [
    (2, 2, 5, 0), (4, 4, 3, 2), (3, 3, 2, 1), (6, 3, 2, 2), (6, 6, 2, 2),
]


def trat_weights(alg, numerator):
    """numerator / (z_xi det(t id - w_xi)) for every class, by TRat
    arithmetic: the weights before the group-ring division."""
    det_poly = alg.levels[0].det_poly
    return [
        numerator * TRat(
            TPoly.constant(alg.field.from_rational(Fraction(1, alg.z_integer(xi)))),
            det_poly(xi.beta),
        )
        for xi in alg.class_params
    ]


def group_ring_weights_checked(monkeypatch):
    """(wrong, counts): the (e, p, n, q, r) of DIFFERENTIAL_SETS where the
    class weights over their common denominator differ from the TRat
    quotients of the degree product D, or, times t^(N*), from those of
    G(t) = t^(N*) D, and per set the classes whose group-ring division
    leaves a remainder."""
    misses = []
    real = gepn.ring_weight

    def spy(level, ring, beta):
        ints = real(level, ring, beta)
        if ints is None:
            misses.append(beta)
        return ints

    monkeypatch.setattr(gepn, "ring_weight", spy)
    wrong, counts = [], {}
    for e, p, n, q in DIFFERENTIAL_SETS:
        for r in (1, 2, 3):
            key = (e, p, n, q, r)
            alg = CosetAlgebra(GroupParams(e, p, n, q), r)
            field = alg.field
            misses.clear()
            weights, common = alg._class_weights()
            got = [TRat(TPoly(field, [field.make(c, z) for c in ints]), common)
                   for z, ints in weights]
            t_n = TRat.t(field, alg.n_star())
            if (got != trat_weights(alg, trat_degree_product(alg))
                    or [t_n * w for w in got] != trat_weights(alg, trat_g_poly(alg))):
                wrong.append(key)
            counts[key] = sum(xi.beta in misses for xi in alg.class_params)
    return wrong, {key: c for key, c in counts.items() if c}


def test_group_ring_weights_equal_the_trat_product(monkeypatch):
    # the class weights divided out in Z[C_e][t] over their common
    # denominator equal the TRat quotients for the degree product and, times
    # t^(N*), for G(t), and the division leaves a remainder only on the
    # zeta-defect sets (2 classes of G(3,3,2) q=1 and of G(6,6,2) q=2, 3 of
    # G(6,3,2) q=2), where the common denominator takes their dets
    want = {(e, p, n, q, r): count
            for (e, p, n, q), count in [((3, 3, 2, 1), 2), ((6, 3, 2, 2), 3), ((6, 6, 2, 2), 2)]
            for r in (1, 2, 3)}
    assert group_ring_weights_checked(monkeypatch) == ([], want)
    # a rotation one step too far divides by t^part - zeta^(k+1): a weight
    # comes out wrong, the remainder classes are not those above, or a
    # class leaves a remainder over its own det
    rotate = symfunc._rotate
    monkeypatch.setattr(symfunc, "_rotate", lambda vec, k: rotate(vec, (k + 1) % len(vec)))
    try:
        wrong, counts = group_ring_weights_checked(monkeypatch)
    except ArithmeticError as exc:
        assert "leaves a remainder over its own det" in str(exc)
    else:
        assert wrong or counts != want


# the 18-set grid of the same-output checks
GRID_18 = [
    (3, 3, 3, 0), (2, 2, 4, 0), (4, 2, 2, 0), (3, 1, 2, 0), (1, 1, 4, 0), (6, 2, 2, 0),
    (5, 5, 2, 0), (2, 2, 3, 1), (2, 2, 2, 1), (4, 4, 3, 2), (3, 3, 2, 1), (6, 6, 2, 2),
    (4, 4, 2, 1), (6, 3, 2, 2), (3, 3, 3, 1), (2, 2, 5, 0), (8, 4, 2, 0), (6, 2, 3, 0),
]
MIRROR_SETS = [s for s in GRID_18 if not s[3]]


def grid_levels():
    """Every sub-level of the 18-set grid at r = 2, and three larger ones."""
    levels = {lv for s in GRID_18 for lv in CosetAlgebra(GroupParams(*s)).levels.values()}
    return sorted(levels | {level_for(3, 4), level_for(4, 3), level_for(2, 5)}, key=repr)


def euclid_lcm(polys):
    """The monic lcm of polys by the Euclidean algorithm."""
    out = polys[0].monic()
    for x in polys[1:]:
        out = out * x.divmod(out.gcd(x))[0]
    return out.monic()


def test_degree_product_is_the_lcm_of_the_z_series_denominators():
    # Springer: the lcm of det(t id - w) over G(e',1,n) is prod (t^(e'i) - 1),
    # the degree product D of the coset, so it is the denominator of the
    # Hall-Littlewood Gram matrices of the level
    for lv in grid_levels():
        alg = coset_algebra(GroupParams(lv.ecols, 1, lv.n))
        want = euclid_lcm([lv.z_series(beta).den for beta in lv.partitions])
        assert TPoly.from_coords(lv.field, alg.big_d().coords()) == want, lv


def test_the_class_sums_take_no_gcd(monkeypatch):
    # the Hall-Littlewood data (the Omega' of G(e',1,n')), Omega' and the
    # fake degrees divide the degree product by every det(t id - w) in the
    # group ring: no polynomial gcd or division is taken (the q = 0 sets,
    # where no weight has a remainder)
    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    calls = []
    for name in ("gcd", "divmod"):
        real = getattr(TPoly, name)

        def spy(self, other, real=real, name=name):
            calls.append(name)
            return real(self, other)

        monkeypatch.setattr(TPoly, name, spy)
    for lv in grid_levels():
        wreath.hl_data(lv, 2)
    for s in MIRROR_SETS:
        alg = CosetAlgebra(GroupParams(*s))
        alg.omega_prime()
        alg.fake_degrees()
    assert calls == []


def test_omega_prime_equals_the_brute_force_class_sum():
    # the q = 0 sets of the grid, G(3,1,3) and G(5,1,2), all below the
    # class cap.  On G(5,1,2) the packed sum fills the top zeta slot of its
    # stride, zeta^(3 phi - 3), which no set of the grid reaches
    from greenrefl import oracle

    for s in MIRROR_SETS + [(3, 1, 3, 0), (5, 1, 2, 0)]:
        params = GroupParams(*s)
        alg = coset_algebra(params)
        assert len(alg.chars) <= oracle.OMEGA_CLASS_CAP, s
        assert BruteForceGroup(params).omega_prime_problems(alg) == [], s


def test_the_brute_force_class_sum_names_a_wrong_entry():
    # an entry altered in a fresh algebra; the class sum takes one entry of
    # each mirrored pair, and checks the other against it
    params = GroupParams(3, 3, 3)
    group = BruteForceGroup(params)
    sigma = CosetAlgebra(params).conjugation_permutation()
    for a, b in [(0, 1), (sigma[1], sigma[0]), (len(sigma) - 1, 0)]:
        alg = CosetAlgebra(params)
        omega = alg.omega_prime()
        omega[a][b] = omega[a][b] + TRat.t(alg.field)
        (problem,) = group.omega_prime_problems(alg)
        assert "is not the class sum" in problem, (a, b)


def test_hl_data_never_asks_the_kostka_assembly(monkeypatch):
    # the data are read off the coset's own elimination; the assembly,
    # which reads hl_data, would be a loop for p = 1
    def refused(self):
        raise AssertionError("the Kostka assembly was asked")

    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    monkeypatch.setattr(CosetAlgebra, "assembly_ldu", refused)
    for lv in grid_levels():
        assert wreath.hl_data(lv, 2).level is lv


def test_hl_data_raises_where_the_coset_elimination_fails(monkeypatch):
    calls = []

    def failing(*args):
        calls.append(args)
        raise ArithmeticError("the block LDU failed its certificate")

    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    monkeypatch.setattr(wreath, "certified_ldu", failing)
    with pytest.raises(ArithmeticError, match="failed its certificate"):
        wreath.hl_data(level_for(3, 2), 2)
    assert len(calls) == 1
    # green of G(3,1,2) has no assembly to fall back on, since that reads
    # hl_data of the same coset: one failed elimination, then the error
    calls.clear()
    with pytest.raises(ArithmeticError, match="failed its certificate"):
        green_suite(GroupParams(3, 1, 2))
    assert len(calls) == 1


def test_a_group_of_p_1_is_eliminated_once(monkeypatch):
    # green, the Kostka assembly and the Hall-Littlewood data of G(e,1,n)
    # all read the one set of factors that the coset holds
    calls = []
    real = wreath.certified_ldu

    def spy(field, nums, *rest):
        calls.append(len(nums))
        return real(field, nums, *rest)

    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    monkeypatch.setattr(wreath, "certified_ldu", spy)
    alg = gepn.coset_algebra(GroupParams(3, 1, 3))
    assert alg.green().residual_zero
    alg.kostka_assembled(-1)
    assert wreath.hl_data(level_for(3, 3), 2).certified()
    assert calls == [len(alg.chars)]


def test_hl_data_holds_the_coset_factors_themselves(monkeypatch):
    # one form of the factors: the lists of HLData are those that the coset
    # of G(e',1,n') keeps, not a copy; the coset reads OmegaPrime's integer
    # numerators only, and formats no OmegaPrime, which nothing prints
    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    data = wreath.hl_data(level_for(3, 3), 2)
    alg = coset_algebra(GroupParams(3, 1, 3), 2)
    (l, d, u, _), _, _ = alg._ldu_factors()
    assert data.l is l and data.d is d and data.u is u
    assert alg._omega is None


def test_the_class_weights_are_divided_once(monkeypatch):
    # OmegaPrime and the fake degrees read one set of class weights: every
    # beta is divided once per round of the remainder rerun: one round where
    # no division leaves a remainder, two on G(3,3,2) q=1, where the rerun
    # over the det of the first remainder class leaves none
    calls = []
    real = gepn.ring_weight

    def spy(level, ring, beta, *rest):
        calls.append(beta)
        return real(level, ring, beta, *rest)

    monkeypatch.setattr(gepn, "ring_weight", spy)
    for s, rounds in [((3, 3, 3, 0), 1), ((3, 3, 2, 1), 2)]:
        calls.clear()
        alg = CosetAlgebra(GroupParams(*s))
        alg.omega_prime()
        alg.fake_degrees()
        betas = {xi.beta for xi in alg.class_params}
        assert Counter(calls) == dict.fromkeys(betas, rounds), s


def test_mirrored_class_sum_equals_the_full_one():
    # OmegaPrime[i][j] = OmegaPrime[s j][s i] for the conjugation
    # permutation s, whatever the weights: the class sum that takes one
    # entry of each pair equals the full one
    for e, p, n, q in MIRROR_SETS:
        for r in (1, 2, 3):
            alg = CosetAlgebra(GroupParams(e, p, n, q), r)
            cols = list(zip(*alg.coset_table()))
            nums, common = gram_numerators(cols, cols, *alg._class_weights())
            shift = [0] * alg.n_star()
            full = [[[shift + c if c else c for c in x] for x in row] for row in nums]
            alg.omega_prime()
            assert alg._omega_nums == (full, common), (e, p, n, q, r)


def test_a_wrong_mirror_fails_verify(capsys, monkeypatch):
    # a permutation with two entries swapped copies entries of OmegaPrime
    # to the wrong places.  The certificate checks the N it is given, so
    # green's factorization still holds; the comparison with the Kostka
    # assembly, which reads no OmegaPrime for K+-, fails.
    from greenrefl.cli import main

    params = GroupParams(2, 2, 4, 0)
    sigma = CosetAlgebra(params).conjugation_permutation()
    # entries 2 and 3 swapped: u^m OmegaPrime(1/u) stays +-I at u = 0, so
    # green keeps the LDU route and its certificate passes
    swapped = list(sigma)
    swapped[2], swapped[3] = swapped[3], swapped[2]
    alg = CosetAlgebra(params)
    monkeypatch.setattr(alg, "conjugation_permutation", lambda: swapped)
    cols = list(zip(*alg.coset_table()))
    weights, common = alg._class_weights()
    assert gram_numerators(cols, cols, weights, common, swapped)[0] != (
        gram_numerators(cols, cols, weights, common)[0])
    monkeypatch.setattr(gepn, "_ALGEBRAS", {(params, 2): alg})
    code = main(["verify", "--e", "2", "--p", "2", "--n", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert alg.green().route == "block LDU of u^m OmegaPrime(1/u) over Z[u], certified"
    assert "[  ok] Green factorization holds exactly" in lines
    assert ("[FAIL] Ktilde+- and LambdaTilde from the OmegaPrime LDU equal the Kostka assembly"
            in lines)


def test_lambda_and_certificate_match_the_trat_route():
    # the packed product and certificate against the TRat solve and residual
    verdicts = {}
    for e, p, n, q in DIFFERENTIAL_SETS:
        for r in (1, 2, 3):
            alg = CosetAlgebra(GroupParams(e, p, n, q), r)
            key = (e, p, n, q, r)
            lam_tilde, residual_zero = trat_route(alg)
            # the assembly's factors, read back and certified, on every set
            (km, lam, kp), certified = assembly_read_back(alg)
            assert (km, kp) == (gcd_ktilde(alg, -1), gcd_ktilde(alg, +1)), key
            assert (lam, certified) == (lam_tilde, residual_zero), key
            suite = alg.green()
            assert suite.lambda_tilde.entries == lam_tilde, key
            assert suite.residual_zero == residual_zero, key
            verdicts[(e, p, n, q, r)] = residual_zero
    assert [key for key, ok in verdicts.items() if not ok] == [
        (e, p, n, q, r) for e, p, n, q in [(3, 3, 2, 1), (6, 3, 2, 2), (6, 6, 2, 2)]
        for r in (1, 2, 3)
    ]


def test_ktilde_of_a_degree_above_the_a_value():
    # K[i][j] of degree d > a_j gives Ktilde[i][j] over t^(d - a_j); an entry
    # with a t-valuation reverses to a lower degree
    alg = CosetAlgebra(GroupParams(2, 2, 3, 0))
    field, t = alg.field, TRat.t(alg.field)
    kmat = [row[:] for row in alg.kostka_assembled(-1)]
    k = len(kmat)
    a_first = alg.a_of[alg.chars[0]]
    kmat[k - 1][0] = t * t * (t + alg.one + alg.one) * TRat.t(field, a_first)
    kmat[k - 1][1] = t * t
    alg._kostka[-1] = kmat
    tilde = assembly_read_back(alg)[0][0]
    assert tilde == gcd_ktilde(alg, -1)
    assert not tilde[k - 1][0].is_polynomial()


def _projected_algebra(params):
    """A fresh algebra of params whose OmegaPrime is replaced by
    Ktilde- LambdaTilde tr(Ktilde+), all three read back off the factors
    that the Kostka assembly of params itself hands in, kept as numerators
    over their lcm denominator.  The factorization holds there by
    construction, also on a set where it fails for the true OmegaPrime, so
    the certificate meets a true identity carrying zeta.  The numerators are
    kept in coordinate lists, as ``gram_numerators`` leaves them."""
    alg = CosetAlgebra(params)
    (km, lam, kp), _ = assembly_read_back(alg)
    omega = linalg.mat_mul(linalg.mat_mul(km, lam), _transpose(kp))
    common = TPoly.constant(alg.field.one)
    for row in omega:
        for x in row:
            common = common * x.den.divmod(common.gcd(x.den))[0]
    nums = [[x.num * common.divmod(x.den)[0] for x in row] for row in omega]
    fresh = CosetAlgebra(params)
    for sign in (+1, -1):
        fresh._kostka[sign] = alg.kostka_assembled(sign)
    fresh._omega = omega
    fresh._omega_nums = ([[x.coords(alg.field) for x in row] for row in nums], common)
    return fresh


def test_certificate_rejects_an_altered_factor():
    # the one certificate, on the factors that the assembly hands in for
    # G(3,3,3) and for the projected G(3,3,2) q=1, whose LambdaTilde has a
    # denominator other than a power of t: an altered d block, an altered l
    # entry below the diagonal blocks and an altered entry of A each fail it
    for alg in [CosetAlgebra(GroupParams(3, 3, 3, 0)),
                _projected_algebra(GroupParams(3, 3, 2, 1))]:
        field = alg.field
        t = TPoly.t_power(field, 1)
        a_u, _ = alg._omega_in_u()
        l, d, u = alg.assembly_ldu()
        blocks = [len(cls) for cls in alg.char_classes]
        assert wreath.ldu_certified(field, a_u, blocks, l, d, u), alg.params
        k = len(l)
        i = len(alg.char_classes[0])            # first row of the second class
        j = next(j for j in range(i) if any(l[i][j]))

        def altered(mat, a, b):
            out = [row[:] for row in mat]
            out[a][b] = plus(field, out[a][b], t)
            return out

        last = len(d[-1]) - 1
        assert not wreath.ldu_certified(
            field, a_u, blocks, l, d[:-1] + [altered(d[-1], last, last)], u)
        assert not wreath.ldu_certified(field, a_u, blocks, altered(l, i, j), d, u)
        assert not wreath.ldu_certified(field, altered(a_u, 0, k - 1), blocks, l, d, u)
        nums, common = alg._omega_nums
        alg._omega_nums = ([row[:] for row in nums], common)
        alg._omega_nums[0][0][k - 1] = plus(field, nums[0][k - 1], t)
        alg._omega_u = None                     # A is built once, from the old numerators
        assert alg.green().residual_zero is False


def test_certificate_catches_a_zeta_fold_mutant(monkeypatch):
    # On the projected algebras of G(3,3,2) q=1 (phi = 2) and G(5,5,2) q=1
    # (phi = 4) the factorization holds with zeta in Ktilde+-, LambdaTilde and
    # OmegaPrime.  A packed product that folds zeta^m by the power table of
    # another cyclotomic field of the same degree gives other d blocks, and
    # so another LambdaTilde, which fails the certificate; as the
    # certificate it rejects the true factors.
    real = linalg.PackedProduct

    def folding_by(e):
        class Mutant(real):
            def __init__(self, field, *args):
                saved, field._powers = field._powers, CycField(e)._powers
                try:
                    super().__init__(field, *args)
                finally:
                    field._powers = saved
        return Mutant

    for params, other in [(GroupParams(3, 3, 2, 1), 6), (GroupParams(5, 5, 2, 1), 10)]:
        alg = _projected_algebra(params)
        lam = alg.lambda_matrix()
        assert alg.green().residual_zero, params
        assert any(any(c.num[1:]) for row in lam for x in row for c in x.num.coeffs)
        a_u, _ = alg._omega_in_u()
        blocks = [len(cls) for cls in alg.char_classes]
        mutant = _projected_algebra(params)
        monkeypatch.setattr(linalg, "PackedProduct", folding_by(other))
        mutant.assembly_ldu()
        assert not wreath.ldu_certified(alg.field, a_u, blocks, *alg.assembly_ldu()), params
        monkeypatch.setattr(linalg, "PackedProduct", real)
        assert mutant.lambda_matrix() != lam, params
        assert mutant.green().residual_zero is False, params


def test_lambda_rejects_a_kostka_matrix_not_unit_lower(monkeypatch):
    alg = CosetAlgebra(GroupParams(2, 2, 3, 0))
    # both Kostka matrices are built, by an elimination that solves, before
    # linalg.solve is patched
    good = alg.kostka_assembled(+1)
    alg.kostka_assembled(-1)
    two_on_diagonal = [row[:] for row in good]
    two_on_diagonal[2][2] = alg.one + alg.one
    above = [row[:] for row in good]
    above[3][4] = TRat.t(alg.field)

    def no_solve(*args):
        raise AssertionError("fell back to linalg.solve")

    monkeypatch.setattr(linalg, "solve", no_solve)
    for row, kmat in [(2, two_on_diagonal), (3, above)]:
        alg._kostka[+1] = kmat
        with pytest.raises(ValueError, match=f"not unit lower-triangular at row {row}$"):
            alg.lambda_matrix()


# -- the block LDU of OmegaPrime against the Kostka assembly ------------------------

LDU_SETS = [
    (3, 3, 3, 0), (2, 2, 4, 0), (4, 2, 2, 0), (3, 1, 2, 0), (1, 1, 4, 0), (6, 2, 2, 0),
    (5, 5, 2, 0), (2, 2, 3, 1), (2, 2, 2, 1), (4, 4, 3, 2), (8, 4, 2, 0),
]


def test_ldu_route_equals_the_assembly(monkeypatch):
    # green reads Ktilde+- and LambdaTilde off the LDU, whose first
    # certificate passes; the assembly, the paper's theorem, gives them entry
    # for entry.  A lost +-I at u = 0 would fall back silently, so the route
    # is pinned, on G(6,2,3) too, whose assembly is too slow to compare here.
    verdicts = []
    real = wreath.ldu_certified

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(wreath, "ldu_certified", spy)
    for e, p, n, q, r in [s + (r,) for s in LDU_SETS for r in (1, 2, 3)] + [(6, 2, 3, 0, 2)]:
        alg = CosetAlgebra(GroupParams(e, p, n, q), r)
        verdicts.clear()
        suite = alg.green()
        key = (e, p, n, q, r)
        assert suite.route == "block LDU of u^m OmegaPrime(1/u) over Z[u], certified", key
        assert verdicts == [True], key
        assert suite.residual_zero, key
        if e == 6 and n == 3:
            continue
        assert suite.ktilde_minus.entries == gcd_ktilde(alg, -1), key
        assert suite.ktilde_plus.entries == gcd_ktilde(alg, +1), key
        assert suite.lambda_tilde.entries == alg.lambda_matrix(), key
        # kostka prints K+- off the same factors, kept on the algebra
        monkeypatch.setitem(gepn._ALGEBRAS, (alg.params, r), alg)
        assert [kostka_gepn(alg.params, r, s).entries for s in (-1, +1)] == [
            alg.kostka_assembled(s) for s in (-1, +1)], key


def test_zeta_carrying_omega_prime_takes_the_assembly_route(monkeypatch):
    for e, p, n, q in [(3, 3, 2, 1), (6, 6, 2, 2)]:
        alg = CosetAlgebra(GroupParams(e, p, n, q))
        suite = alg.green()
        assert suite.route == "Kostka assembly (OmegaPrime is not over Z[t])", (e, p, n, q)
        assert suite.ktilde_minus.entries == gcd_ktilde(alg, -1)
        assert suite.ktilde_plus.entries == gcd_ktilde(alg, +1)
        assert (suite.lambda_tilde.entries, suite.residual_zero) == (trat_route(alg)[0], False)
        # kostka prints K+- off the factors that the assembly hands in
        monkeypatch.setitem(gepn._ALGEBRAS, (alg.params, 2), alg)
        assert [kostka_gepn(alg.params, 2, s).entries for s in (-1, +1)] == [
            alg.kostka_assembled(s) for s in (-1, +1)], (e, p, n, q)


def test_laurent_entries_round_trip_through_the_codec():
    # f = num / t^s, written as u^top f(1/u) in Z[u], packed in Z[u]/(u^M)
    # at u = 2^B and read back by SeriesRing, then turned back into f by the
    # reversal: negative exponents, negative top coefficients, a top above
    # the highest power of f (low zero coefficients in u) and zero entries
    from greenrefl.exact_arith import SeriesRing

    field = CycField(3)
    rng = random.Random(20261019)

    def laurent(coeffs, s):
        """sum_m coeffs[m] t^(m - s), in canonical form."""
        return TRat(TPoly(field, [field.from_rational(c) for c in coeffs]), TPoly.t_power(field, s))

    def in_u(coeffs, s, top):
        """u^top f(1/u) = sum_m coeffs[m] u^(top + s - m), as a TPoly."""
        out = [0] * (top + s + 1)
        for m, c in enumerate(coeffs):
            out[top + s - m] = c
        return TPoly(field, [field.from_rational(c) for c in out])

    fixed = [([], 0), ([0] * 5 + [-1], 0), ([-1], 3), ([-3, 1, 0, 0, -2], 2), ([0, 2, 0, 1], 5)]
    for bits in (3, 8, 64):
        # every coefficient below 2^(B-1) in absolute value reads back
        hi = (1 << (bits - 1)) - 1
        lo = -hi
        cases = [(coeffs, s, extra) for coeffs, s in fixed for extra in (0, 2)]
        for _ in range(30):
            coeffs = [rng.choice([lo, hi, 0, rng.randint(lo, hi)]) for _ in range(rng.randint(1, 8))]
            coeffs[0] = coeffs[0] or lo
            coeffs[-1] = rng.choice([lo, -hi, -1, 1])
            cases.append((coeffs, rng.randint(0, 6), rng.randint(0, 3)))
        for coeffs, s, extra in cases:
            f = laurent(coeffs, s)
            top = max(len(coeffs) - 1 - s, 0) + extra
            poly = in_u(coeffs, s, top)
            ring = SeriesRing(field, top + s + 1, bits)
            back = TPoly.from_coords(field, ring.decode(ring.encode(poly.coords())))
            assert back == poly, (bits, str(f), top)
            assert gepn._reversal(back, top) == f, (bits, str(f), top)


def test_a_read_back_with_too_few_bits_falls_back_to_the_assembly(capsys, monkeypatch):
    # the mutant reads the digits of a series packed at 2^B with B - 1 bits:
    # the certificate on u^m OmegaPrime(1/u) fails at B = 64, 128 and 256, and
    # green prints what the assembly gives, byte for byte.  The assembly's
    # Hall-Littlewood data is built before the mutant, which would spoil it too.
    from greenrefl import exact_arith
    from greenrefl.cli import main

    argv = ["green", "--e", "3", "--p", "3", "--n", "3", "--format", "json"]
    monkeypatch.setattr(gepn, "_ALGEBRAS", {})
    monkeypatch.setattr(wreath, "_HL_CACHE", {})
    assert main(argv) == 0
    want = capsys.readouterr().out
    coset_algebra(GroupParams(3, 3, 3, 0)).assembly_ldu()
    gepn._ALGEBRAS.clear()
    verdicts = []
    real = wreath.ldu_certified

    def spy(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    # the one certificate: three elimination attempts, then the assembly's
    # factors
    monkeypatch.setattr(wreath, "ldu_certified", spy)
    digits = exact_arith.kron_digits
    monkeypatch.setattr(exact_arith, "kron_digits", lambda v, bits: digits(v, bits - 1))
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    assert verdicts == [False, False, False, True]
    route = coset_algebra(GroupParams(3, 3, 3, 0)).green().route
    assert route.startswith("Kostka assembly (the block LDU failed its certificate"), route
    assert route.endswith("with 256-bit digits)"), route


def test_ldu_route_ends_on_a_factor_that_is_not_integral():
    # OmegaPrime with one entry altered: plus t, it has no block LDU over
    # Z[1/t], and no certificate passes; plus t^m, u^m OmegaPrime(1/u) is
    # not +-I at u = 0; plus zeta t, a coefficient is not in Z.  Each time
    # the error names the cause and the assembly answers.
    zeta = CycField(3).zeta()
    for change, cause in [
        (lambda alg, top: TPoly.t_power(alg.field, 1),
         "the block LDU failed its certificate at every precision up to t^"),
        (lambda alg, top: TPoly.t_power(alg.field, top),
         "the matrix is not +-I at t = 0, so its pivot blocks need not be units modulo t"),
        (lambda alg, top: TPoly.t_power(alg.field, 1, alg.field.zeta()),
         f"coefficient {zeta} of "),
    ]:
        alg = CosetAlgebra(GroupParams(3, 3, 3, 0))
        alg.omega_prime()
        nums, common = alg._omega_nums
        k = len(nums)
        top = max(len(c) for row in nums for x in row for c in x) - 1
        altered = [row[:] for row in nums]
        altered[0][k - 1] = plus(alg.field, nums[0][k - 1], change(alg, top))
        alg._omega_nums = (altered, common)
        (*factors, _), certified, route = alg._ldu_factors()
        assert factors == list(alg.assembly_ldu())
        assert certified is False
        assert route.startswith("Kostka assembly (" + cause), route
        assert alg.green().residual_zero is False
