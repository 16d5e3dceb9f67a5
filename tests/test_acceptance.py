"""Acceptance suite: each test prints one pass/fail line.

Golden data is transcribed from the published tables for G(3,3,3) and
G(4,4,3) at r = 2 and from the dihedral lemma; all comparisons are exact
(no tolerances anywhere -- every checked quantity is an algebraic
identity or a finite table of polynomials).
"""

import time
from fractions import Fraction
from itertools import permutations

import pytest

from greenrefl import linalg
from greenrefl.combinatorics import (
    CharParam,
    GroupParams,
    enumerate_class_params,
    enumerate_epartitions,
    make_symbol,
    a_value,
)
from greenrefl.exact_arith import CycField, TPoly, TRat
from greenrefl.gepn import coset_algebra, coset_char_table, fake_degrees, green_suite
from greenrefl.oracle import BruteForceGroup
from greenrefl.symfunc import level_for
from greenrefl.wreath import hl_data

from polynomial_oracle import cauchy_truncated, poly_level_for
from schur_gram import s_in_p, scalar_from_p, zero_rat
from tuple_oracle import kostka_direct

GRID = [
    (2, 2, 2, 0), (2, 2, 2, 1), (2, 2, 3, 0), (2, 2, 3, 1),
    (3, 3, 2, 0), (3, 3, 3, 0), (4, 4, 2, 0), (4, 2, 2, 0),
]


def tp(e, *pairs):
    """Polynomial from (degree, coeff) pairs."""
    field = CycField(e)
    if not pairs:
        return TRat(TPoly(field, ()), reduce=False)
    deg = max(d for d, _ in pairs)
    coeffs = [field.zero] * (deg + 1)
    for d, c in pairs:
        coeffs[d] = field.from_rational(c)
    return TRat(TPoly(field, coeffs))


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# -- criterion 1: Table of G(3,3,3), r = 2 -------------------------------------

TABLE1 = [
    # rows: (111;;), (11;1;), (1;11;), (1;1;1), (1;1;1)', (1;1;1)'',
    #       (21;;), (2;1;), (1;2;), (3;;)
    [[(9, 1)], [], [], [], [], [], [], [], [], []],
    [[(7, 2), (4, 1)], [(4, 1)], [], [], [], [], [], [], [], []],
    [[(8, 1), (5, 2)], [], [(4, 1)], [], [], [], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [(3, 1)], [], [], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [], [(3, 1)], [], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [], [], [(3, 1)], [], [], [], []],
    [[(6, 1), (3, 1)], [(3, 1)], [], [], [], [], [(3, 1)], [], [], []],
    [[(4, 2), (1, 1)], [(1, 1)], [(3, 1)], [(1, 1)], [(1, 1)], [(1, 1)],
     [(1, 1)], [(1, 1)], [], []],
    [[(5, 1), (2, 2)], [(2, 2)], [], [(2, 1)], [(2, 1)], [(2, 1)],
     [(2, 1)], [], [(1, 1)], []],
    [[(0, 1)], [(0, 1)], [], [(0, 1)], [(0, 1)], [(0, 1)], [(0, 1)],
     [(0, 1)], [], [(0, 1)]],
]


def test_criterion_1_table_g333():
    t0 = time.time()
    suite = green_suite(GroupParams(3, 3, 3, 0), 2)
    elapsed = time.time() - t0
    golden = [[tp(3, *cell) for cell in row] for row in TABLE1]
    got = suite.ktilde_minus.entries
    labels = [
        "(111;;)", "(11;1;)", "(1;11;)", "(1;1;1)", "(1;1;1)'", "(1;1;1)''",
        "(21;;)", "(2;1;)", "(1;2;)", "(3;;)",
    ]
    assert suite.labels == labels
    # permutation freedom only among the primed rows (positions 3..5),
    # applied simultaneously to rows and columns
    primed = [3, 4, 5]
    ok = False
    for perm in permutations(primed):
        mapping = list(range(10))
        for a, b in zip(primed, perm):
            mapping[a] = b
        if all(
            got[mapping[i]][mapping[j]] == golden[i][j]
            for i in range(10)
            for j in range(10)
        ):
            ok = True
            break
    report("1 (Table of G(3,3,3) at r=2, exact)", ok and suite.residual_zero)
    assert elapsed < 60, f"criterion 1 runtime {elapsed:.1f}s exceeds 60s"


# -- criterion 2: Table of G(4,4,3), r = 2 -------------------------------------
#
# The printed table carries three documented defects (see the project
# notes): its third row label is corrupt, its rows/columns inside the
# second and fifth similarity classes follow the order (a2, a4, a3) and
# (a7, a9, a8) -- contradicting the symbol list of the same section, the
# mass check sum_z R_z(1) deg(z) = |W|, and an independent Molien-sum
# computation -- and the row-(2;1;-;-) first entry misses a "+t" (it
# violates the same mass check).  TABLE2 below is the printed matrix;
# PERM2 maps printed positions to canonical ones; the +t term is restored.

TABLE2 = [
    [[(12, 1)], [], [], [], [], [], [], [], [], []],
    [[(10, 1), (9, 1), (5, 1)], [(5, 1)], [], [], [], [], [], [], [], []],
    [[(11, 1), (7, 1), (6, 1)], [], [(5, 1)], [], [], [], [], [], [], []],
    [[(10, 1), (8, 1), (6, 1)], [], [], [(5, 1)], [], [], [], [], [], []],
    [[(8, 1), (4, 1)], [(4, 1)], [], [], [(4, 1)], [], [], [], [], []],
    [[(9, 1), (8, 1), (7, 1), (5, 1), (4, 1), (3, 1)], [(4, 1), (3, 1)], [],
     [(4, 1)], [], [(3, 1)], [], [], [], []],
    [[(6, 1), (5, 1), (1, 1)], [(1, 1)], [(4, 1)], [], [(1, 1)], [(1, 1)],
     [(1, 1)], [], [], []],
    [[(7, 1), (3, 1), (2, 1)], [(3, 1), (2, 1)], [], [], [(3, 1)], [(2, 1)],
     [], [(1, 1)], [], []],
    [[(6, 1), (4, 1), (2, 1)], [(2, 1)], [], [(3, 1)], [(2, 1)], [(2, 1)],
     [], [], [(1, 1)], []],
    [[(0, 1)], [(0, 1)], [], [], [(0, 1)], [(0, 1)], [(0, 1)], [], [],
     [(0, 1)]],
]

# printed position -> canonical position (swap a3/a4 and a8/a9)
PERM2 = [0, 1, 3, 2, 4, 5, 6, 8, 7, 9]


def test_criterion_2_table_g443():
    t0 = time.time()
    suite = green_suite(GroupParams(4, 4, 3, 0), 2)
    elapsed = time.time() - t0
    labels = [
        "(111;;;)", "(11;1;;)", "(11;;1;)", "(1;11;;)", "(21;;;)",
        "(1;1;1;)", "(2;1;;)", "(2;;1;)", "(1;2;;)", "(3;;;)",
    ]
    assert suite.labels == labels
    golden = [[tp(4, *cell) for cell in row] for row in TABLE2]
    got = suite.ktilde_minus.entries
    ok = all(
        got[PERM2[i]][PERM2[j]] == golden[i][j]
        for i in range(10)
        for j in range(10)
    )
    report("2 (Table of G(4,4,3) at r=2, exact)", ok and suite.residual_zero)
    assert elapsed < 300, f"criterion 2 runtime {elapsed:.1f}s exceeds 5 min"


# -- criterion 3: Lambda blocks --------------------------------------------------


def blocks_of(mat, blocks):
    out = []
    pos = 0
    for b in blocks:
        out.append(
            [[mat[i][j] for j in range(pos, pos + b)] for i in range(pos, pos + b)]
        )
        pos += b
    return out


def test_criterion_3_lambda_blocks():
    # G(3,3,3): all six displayed matrices, canonical order
    suite = green_suite(GroupParams(3, 3, 3, 0), 2)
    got = blocks_of(suite.lambda_symmetric.entries, suite.blocks)
    one = tp(3, (0, 1))
    f2 = tp(3, (6, 1), (0, -1))
    expect2 = [
        [f2 * tp(3, (3, 2), (0, 1)), f2 * tp(3, (4, 1), (1, 2))],
        [f2 * tp(3, (4, 1), (1, 2)), f2 * tp(3, (2, 3))],
    ]
    f3 = tp(3, (3, 1)) * tp(3, (3, 1), (0, -1)) * tp(3, (6, 1), (0, -1))
    f5 = tp(3, (3, 1)) * tp(3, (3, 1), (0, -1)) * tp(3, (3, 1), (0, -1)) * tp(
        3, (6, 1), (0, -1)
    )
    f6 = tp(3, (6, 1)) * tp(3, (3, 1), (0, -1)) * tp(3, (3, 1), (0, -1)) * tp(
        3, (6, 1), (0, -1)
    )
    ok = (
        got[0] == [[one]]
        and got[1] == expect2
        and got[2]
        == [
            [f3 if i == j else tp(3) for j in range(3)]
            for i in range(3)
        ]
        and got[3] == [[f3]]
        and got[4]
        == [
            [f5 * tp(3, (0, 2)), f5 * tp(3, (1, 1))],
            [f5 * tp(3, (1, 1)), tp(3)],
        ]
        and got[5] == [[f6]]
    )

    # G(4,4,3): same within-class transposition as the printed table
    suite4 = green_suite(GroupParams(4, 4, 3, 0), 2)
    lam4 = suite4.lambda_symmetric.entries
    perm = PERM2
    g = lambda i, j: lam4[perm[i]][perm[j]]
    f2 = tp(4, (8, 1), (0, -1))
    expect_f2 = [
        [f2 * tp(4, (5, 1), (4, 1), (0, 1)), f2 * tp(4, (6, 1), (2, 1), (1, 1)),
         f2 * tp(4, (5, 1), (3, 1), (1, 1))],
        [f2 * tp(4, (6, 1), (2, 1), (1, 1)), f2 * tp(4, (4, 1), (3, 1), (2, 1)),
         f2 * tp(4, (4, 1), (3, 1), (2, 1))],
        [f2 * tp(4, (5, 1), (3, 1), (1, 1)), f2 * tp(4, (4, 1), (3, 1), (2, 1)),
         f2 * tp(4, (6, 1), (4, 1), (2, 1))],
    ]
    ok4 = all(g(1 + i, 1 + j) == expect_f2[i][j] for i in range(3) for j in range(3))
    f3 = tp(4, (5, 1)) * tp(4, (3, 1), (0, -1)) * tp(4, (8, 1), (0, -1))
    ok4 = ok4 and g(4, 4) == f3
    f4 = tp(4, (4, 1)) * tp(4, (2, 1), (1, 1), (0, 1)) * tp(4, (4, 1), (0, -1)) * tp(
        4, (8, 1), (0, -1)
    )
    ok4 = ok4 and g(5, 5) == f4
    f5 = (
        tp(4, (5, 1))
        * tp(4, (3, 1), (0, -1))
        * tp(4, (4, 1), (0, -1))
        * tp(4, (8, 1), (0, -1))
    )
    expect_f5 = [
        [f5 * tp(4, (1, 1), (0, 1)), f5 * tp(4, (2, 1)), f5 * tp(4, (1, 1))],
        [f5 * tp(4, (2, 1)), tp(4), tp(4)],
        [f5 * tp(4, (1, 1)), tp(4), f5 * tp(4, (2, 1))],
    ]
    ok4 = ok4 and all(
        g(6 + i, 6 + j) == expect_f5[i][j] for i in range(3) for j in range(3)
    )
    f6 = (
        tp(4, (9, 1))
        * tp(4, (3, 1), (0, -1))
        * tp(4, (4, 1), (0, -1))
        * tp(4, (8, 1), (0, -1))
    )
    ok4 = ok4 and g(9, 9) == f6
    ok4 = ok4 and g(0, 0) == tp(4, (0, 1))
    report("3 (Lambda blocks of G(3,3,3) and G(4,4,3), exact)", ok and ok4)


# -- criterion 4: dihedral suite ---------------------------------------------------


def test_criterion_4_dihedral():
    ok_all = True
    for e in (3, 4, 5, 6):
        suite = green_suite(GroupParams(e, e, 2, 0), 2)
        km = suite.ktilde_minus.entries
        lam = suite.lambda_symmetric.entries
        k = suite.blocks[1]
        m = e // 2
        if e % 2 == 1:
            expect_p21 = [tp(e, (j, 1), (e - j, 1)) for j in range(1, m + 1)]
        else:
            expect_p21 = [tp(e, (j, 1), (e - j, 1)) for j in range(1, m)]
            expect_p21 += [tp(e, (m, 1)), tp(e, (m, 1))]
        got_p21 = [km[1 + i][0] for i in range(k)]
        ok = got_p21 == expect_p21
        ok = ok and km[1 + k][0] == tp(e, (0, 1))
        got_p32 = [km[1 + k][1 + i] for i in range(k)]
        ok = ok and got_p32 == [tp(e, (0, 1))] + [tp(e)] * (k - 1)
        ok = ok and lam[0][0] == tp(e, (0, 1))
        l33 = tp(e, (e - 2, 1)) * tp(e, (2, 1), (0, -1)) * tp(e, (e, 1), (0, -1))
        ok = ok and lam[1 + k][1 + k] == l33
        factor = tp(e, (e, 1), (0, -1))
        row1 = [lam[1][1 + i] for i in range(k)]
        expect_row1 = [
            factor * p / tp(e, (1, 1)) for p in expect_p21
        ]
        ok = ok and row1 == expect_row1
        ok_all = ok_all and ok and suite.residual_zero
    report("4 (dihedral suite e in {3,4,5,6}, exact)", ok_all)


# -- criterion 5: fake-degree column ------------------------------------------------


def test_criterion_5_fake_degree_column():
    ok = True
    for e, p, n in [(3, 3, 3), (4, 4, 3)]:
        params = GroupParams(e, p, n, 0)
        suite = green_suite(params, 2)
        degs = fake_degrees(params, 2)
        for i, z in enumerate(suite.char_params):
            ok = ok and suite.ktilde_minus.entries[i][0] == degs[z]
    # dihedral fake degrees
    for e in (3, 4, 5, 6):
        params = GroupParams(e, e, 2, 0)
        degs = fake_degrees(params, 2)
        triv = CharParam(((2,),) + ((),) * (e - 1), 0)
        sign = CharParam(((1, 1),) + ((),) * (e - 1), 0)
        ok = ok and degs[triv] == tp(e, (0, 1)) and degs[sign] == tp(e, (e, 1))
        for j in range(1, (e - 1) // 2 + 1):
            refl = CharParam(
                tuple(((1,) if c in (0, j) else ()) for c in range(e)), 0
            )
            ok = ok and degs[refl] == tp(e, (j, 1), (e - j, 1))
        if e % 2 == 0:
            half = tuple(((1,) if c in (0, e // 2) else ()) for c in range(e))
            for phi in (0, 1):
                ok = ok and degs[CharParam(half, phi)] == tp(e, (e // 2, 1))
    report("5 (fake-degree column and dihedral fake degrees, exact)", ok)


# -- criterion 6: Theorem factorization on the grid ----------------------------------


def test_criterion_6_factorization_grid():
    t0 = time.time()
    ok = True
    for e, p, n, q in GRID:
        for r in (1, 2):
            suite = green_suite(GroupParams(e, p, n, q), r)
            ok = ok and suite.residual_zero
    elapsed = time.time() - t0
    report("6 (exact factorization on the full grid, r in {1,2})", ok)
    assert elapsed < 600, f"criterion 6 runtime {elapsed:.1f}s exceeds 10 min"


# -- criterion 7: orthogonality and oracle match -------------------------------------


def test_criterion_7_orthogonality_and_oracle():
    ok = True
    for e, p, n, q in GRID:
        params = GroupParams(e, p, n, q)
        alg = coset_algebra(params, 2)
        ok = ok and alg.orthogonality_holds()
        if q == 0:
            table = coset_char_table(params, 2)
            problems = BruteForceGroup(params).table_problems(
                table.rows, table.cols, table.entries
            )
            ok = ok and problems == []
    report("7 (orthogonality on the grid; q=0 tables match brute force)", ok)


# -- criterion 8: property suites -----------------------------------------------------


def test_criterion_8_property_suites():
    ok = True
    # reproducing-kernel identity in truncation
    for e, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        ok = ok and cauchy_truncated(n, e)[0]
    # Hall-Littlewood orthogonality and duality at a wreath level
    lv = level_for(2, 2)
    data = hl_data(lv, 2)
    class_of = {}
    for ci, cls in enumerate(data.classes):
        for zi in cls:
            class_of[zi] = ci
    s_rows = [[TRat.from_cyc(c) for c in row] for row in s_in_p(lv)]
    pp, pm, qm_p = (linalg.mat_mul(rows, s_rows) for rows in (data.sp, data.sm, data.qm))
    for i in range(len(data.order)):
        for j in range(len(data.order)):
            prod = scalar_from_p(lv, pp[i], pm[j])
            if class_of[i] != class_of[j]:
                ok = ok and prod.is_zero()
            dual = scalar_from_p(lv, pp[i], qm_p[j])
            ok = ok and dual == (lv.one if i == j else zero_rat(lv))
    # tuple-level transition matrices specialize to the coset table at t=0:
    # X(+/-) = X(0) K_direct(+/-) with X(0) invertible, so this is
    # K_direct(+/-)(0) = identity
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 2, 1), (3, 3, 2, 0)]:
        alg = coset_algebra(GroupParams(e, p, n, q), 2)
        for sign in (+1, -1):
            for i, row in enumerate(kostka_direct(alg, sign)):
                for j, v in enumerate(row):
                    want = alg.field.one if i == j else alg.field.zero
                    ok = ok and v.eval_zero() == want
    # one-row q generating series against the alternant closed form is
    # covered by the symfunc test module; assert the small identity here
    lv3 = poly_level_for(3, 2)
    t = TRat.t(lv3.field)
    q1 = lv3.q_row(1, 0, +1)
    expect = lv3._plain_power_poly(0, 1) + lv3._plain_power_poly(1, 1).scale(-t)
    ok = ok and q1 == expect
    # a-function shift invariance
    for alpha in enumerate_epartitions(3, 3):
        sym = make_symbol(alpha, (3, 3, 3), 2)
        ok = ok and a_value(sym) == a_value(sym.shift())
    report("8 (kernel, duality, specialization, shift-invariance suites)", ok)


# -- criterion 9: Kostka cross-check ---------------------------------------------------


def test_criterion_9_kostka_cross_check():
    ok = True
    for e, p, n, q in GRID:
        for r in (1, 2):
            alg = coset_algebra(GroupParams(e, p, n, q), r)
            for sign in (+1, -1):
                direct = kostka_direct(alg, sign)
                assembled = alg.kostka_assembled(sign)
                for ra, rb in zip(direct, assembled):
                    for a, b in zip(ra, rb):
                        ok = ok and a == b
    report("9 (Kostka assembly = direct transition, full grid)", ok)
