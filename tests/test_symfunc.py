import random
from fractions import Fraction
from itertools import permutations

from greenrefl import linalg
from greenrefl.combinatorics import (
    GroupParams,
    delta,
    enumerate_epartitions,
    partitions,
    theta,
)
from greenrefl.exact_arith import CycField, TPoly, TRat
from greenrefl.gepn import CosetAlgebra, clear_caches, coset_algebra, coset_char_table
from greenrefl.symfunc import Level, as_fractions, gram_numerators, level_for
from greenrefl.wreath import level_char_table

from polynomial_oracle import SymPoly, cauchy_truncated, poly_level, poly_level_for
from schur_gram import s_in_p, scalar_from_p, schur_gram
from test_acceptance import GRID

P = lambda *comps: tuple(tuple(c) for c in comps)


# -- independent oracles ------------------------------------------------------


def mn_character(lam, mu):
    """Murnaghan-Nakayama rule for S_n characters via beta-numbers:
    removing a k-border-strip moves one bead down by k on the abacus, and
    the sign counts the beads jumped over."""
    lam = tuple(lam)
    if not mu:
        return 1 if sum(lam) == 0 else 0
    k, rest = mu[0], tuple(mu[1:])
    if not lam:
        return 0
    rows = len(lam)
    beta = [lam[i] + (rows - 1 - i) for i in range(rows)]
    total = 0
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta:
            continue
        height = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for j, x in enumerate(beta) if j != i), reverse=True)
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        newlam = tuple(x - (rows - 1 - idx) for idx, x in enumerate(newbeta))
        newlam = tuple(x for x in newlam if x > 0)
        total += (-1) ** height * mn_character(newlam, rest)
    return total


def expansion_char_table(level):
    """The character table by polynomial expansion: the coefficient of
    s_alpha in p_beta read off the monomial coordinates of both bases.
    The polynomial oracle never reads the level's own table."""
    px = poly_level(level)
    prows = linalg.mat_mul(px.m_matrix("powersum"), px.m_matrix_inv("schur"))
    return [list(col) for col in zip(*prows)]


def jacobi_trudi_schur(level, k, lam):
    """Schur polynomial of one color as det(h_(lam_i - i + j))."""
    size = len(lam)
    if size == 0:
        return SymPoly.constant(level.space, level.one)

    def h(deg):
        if deg < 0:
            return SymPoly.zero(level.space)
        return level._hom_poly(k, deg)

    total = SymPoly.zero(level.space)
    for perm in permutations(range(size)):
        sign = 1
        for i in range(size):
            for j in range(i):
                if perm[j] > perm[i]:
                    sign = -sign
        term = SymPoly.constant(level.space, TRat.rational(sign, level.E))
        for i in range(size):
            term = term * h(lam[i] - (i + 1) + (perm[i] + 1))
        total = total + term
    return total


# -- basis polynomials --------------------------------------------------------


def test_schur_examples():
    lv = poly_level_for(2, 1)
    s = lv.schur(P((1,), ()))
    expect = SymPoly(
        lv.space,
        {lv.space.var_exp(0, i): lv.one for i in range(lv.space.m[0])},
    )
    assert s == expect
    lv1 = poly_level_for(1, 2)
    s2 = lv1.schur(P((2,)))
    assert sorted(s2.terms) == [(0, 2), (1, 1), (2, 0)]
    # product structure over colors
    lv2 = poly_level_for(2, 2)
    prod = lv2.schur(P((1,), (1,)))
    a = lv2.schur(P((1,), ()))
    b = lv2.schur(P((), (1,)))
    assert prod == a * b


def test_schur_vs_jacobi_trudi():
    for e, n in [(1, 3), (1, 4), (2, 3)]:
        lv = poly_level_for(e, n)
        for lam in partitions(n):
            if len(lam) > lv.space.m[0]:
                continue
            assert lv._schur_color(0, lam) == jacobi_trudi_schur(lv, 0, lam)


def test_monomial_examples():
    lv = poly_level_for(2, 1)
    assert lv.monomial(P((1,), ())) == lv.schur(P((1,), ()))
    lv1 = poly_level_for(1, 2)
    m11 = lv1.monomial(P((1, 1)))
    assert m11.terms == {(1, 1): lv1.one}
    lv3 = poly_level_for(1, 3)
    m21 = lv3.monomial(P((2, 1)))
    assert set(m21.terms) == {
        (2, 1, 0), (2, 0, 1), (1, 2, 0), (0, 2, 1), (1, 0, 2), (0, 1, 2),
    }


def test_powersum_examples():
    # e = 1 reduces to the classical power sum
    lv1 = poly_level_for(1, 2)
    p2 = lv1.powersum(P((2,)))
    assert p2.terms == {(2, 0): lv1.one, (0, 2): lv1.one}
    # e = 2: zeta = -1 mixes the two colors
    lv = poly_level_for(2, 1)
    p_plus = lv.powersum(P((1,), ()))
    p_minus = lv.powersum(P((), (1,)))
    x0 = lv._plain_power_poly(0, 1)
    x1 = lv._plain_power_poly(1, 1)
    assert p_plus == x0 + x1
    assert p_minus == x0 - x1


def test_q_row_examples():
    lv = poly_level_for(1, 2)
    assert lv.q_row(0, 0, +1) == SymPoly.constant(lv.space, lv.one)
    one_minus_t = TRat(TPoly(lv.field, [lv.field.one, -lv.field.one]))
    q1 = lv.q_row(1, 0, +1)
    assert q1 == lv._plain_power_poly(0, 1).scale(one_minus_t)
    lv2 = poly_level_for(2, 1)
    q = lv2.q_row(1, 0, +1)
    t = TRat.t(lv2.field)
    assert q == lv2._plain_power_poly(0, 1) + lv2._plain_power_poly(1, 1).scale(-t)


def test_q_product_examples():
    lv = poly_level_for(1, 2)
    empty = P(())
    assert lv.q_product(empty, +1) == SymPoly.constant(lv.space, lv.one)
    q11 = lv.q_product(P((1, 1)), +1)
    assert q11 == lv.q_row(1, 0, +1) * lv.q_row(1, 0, +1)


def test_q_row_closed_form():
    # generating-series definition equals the alternant closed form:
    # q_r * prod_(i<j)(x_i - x_j) = sum_i (-1)^i x_i^(r-1)
    #     * prod_j (x_i - t y_j) * Vandermonde(x without x_i)
    for e in (1, 2, 3):
        for n in (2, 3):
            lv = poly_level_for(e, n)
            t = TRat.t(lv.field)
            for sign in (+1, -1):
                kk = (0 + sign) % e
                mk = lv.space.m[0]
                xv = [lv.space.var_exp(0, i) for i in range(mk)]
                yv = [lv.space.var_exp(kk, i) for i in range(lv.space.m[kk])]

                def mono(exp):
                    return SymPoly(lv.space, {exp: lv.one})

                vand_all = SymPoly.constant(lv.space, lv.one)
                for i in range(mk):
                    for j in range(i + 1, mk):
                        vand_all = vand_all * (mono(xv[i]) - mono(xv[j]))
                for r in (1, 2, 3):
                    lhs = lv.q_row(r, 0, sign) * vand_all
                    rhs = SymPoly.zero(lv.space)
                    for i in range(mk):
                        term = mono(tuple(a * (r - 1) for a in xv[i])) if r > 1 else (
                            SymPoly.constant(lv.space, lv.one)
                        )
                        if r > 1:
                            term = SymPoly(lv.space, {tuple(a * (r - 1) for a in xv[i]): lv.one})
                        for yexp in yv:
                            term = term * (mono(xv[i]) - mono(yexp).scale(t))
                        rest = SymPoly.constant(lv.space, lv.one)
                        others = [x for x2, x in enumerate(xv) if x2 != i]
                        for a in range(len(others)):
                            for b in range(a + 1, len(others)):
                                rest = rest * (mono(others[a]) - mono(others[b]))
                        sgn = TRat.rational((-1) ** i, lv.E)
                        rhs = rhs + (term * rest).scale(sgn)
                    assert lhs == rhs, (e, n, r, sign)


# -- expansion ---------------------------------------------------------------


def support(lv, coords):
    """The nonzero coordinates of a polynomial-oracle expansion, by label."""
    return {alpha: c for alpha, c in zip(lv.partitions, coords) if not c.is_zero()}


def test_expand_schur_examples():
    lv = poly_level_for(1, 2)
    exp = lv.expand(lv.powersum(P((2,))), "schur")
    assert support(lv, exp) == {P((2,)): lv.one, P((1, 1)): TRat.rational(-1, 1)}
    exp2 = lv.expand(lv.powersum(P((1, 1))), "schur")
    assert support(lv, exp2) == {P((2,)): lv.one, P((1, 1)): lv.one}
    # expanding a Schur function is a delta
    lv2 = poly_level_for(2, 2)
    for alpha in lv2.partitions:
        exp = lv2.expand(lv2.schur(alpha), "schur")
        assert support(lv2, exp) == {alpha: lv2.one}


def test_expand_matches_mn_rule():
    lv = poly_level_for(1, 3)
    for beta in partitions(3):
        exp = lv.expand(lv.powersum(P(beta)), "schur")
        for lam, c in zip(lv.partitions, exp):
            assert c == TRat.rational(mn_character(lam[0], beta), 1), (lam, beta)


def test_char_table_matches_expansion():
    # every sub-level of the acceptance grid and of the three chartable
    # benchmark groups, every G(e,1,n) with e*n <= 10 whose expansion stays
    # cheap, and levels with zeta = zeta_E^h, h > 1, and several colours,
    # where a group-ring weight zeta^m sits at the exponent m*h of zeta_E
    levels = {}
    for e, p, n, q in GRID + [(3, 3, 4, 0), (2, 2, 5, 0), (6, 2, 3, 0)]:
        for lv in coset_algebra(GroupParams(e, p, n, q)).levels.values():
            levels[(lv.E, lv.h, lv.ecols, lv.n)] = lv
    for e in range(1, 11):
        for n in range(1, 10 // e + 1):
            if (e, n) not in ((1, 9), (1, 10)):
                levels[(e, 1, e, n)] = level_for(e, n)
    for key in [(4, 2, 2, 2), (6, 2, 3, 2), (6, 3, 2, 2), (12, 4, 3, 2), (6, 2, 3, 3)]:
        levels[key] = Level(*key)
    for key, lv in levels.items():
        assert level_char_table(lv).matrix.entries == expansion_char_table(lv), key


def test_char_table_columns_equal_those_of_the_full_table():
    # the full table built first, then, on a fresh level, columns asked
    # before the full table exists, in a shuffled order, and again after
    # it, in another order: the same lists every time.  The levels have
    # h = 1 and h > 1 (G(4,2,2) at j = 1) and E != ecols
    keys = [
        (3, 1, 3, 3),
        (2, 1, 2, 4),
        (12, 4, 3, 2),
        *(tuple(getattr(lv, x) for x in ("E", "h", "ecols", "n"))
          for lv in (coset_algebra(GroupParams(6, 2, 3)).levels[0],
                     CosetAlgebra(GroupParams(4, 2, 2)).levels[1])),
    ]
    assert any(h > 1 for _, h, _, _ in keys) and any(E != c for E, _, c, _ in keys)
    full = {key: Level(*key).char_table() for key in keys}
    clear_caches()
    rng = random.Random(26)
    for key in keys:
        lv = Level(*key)
        want = lambda bs: [[row[b] for row in full[key]] for b in bs]
        cols = rng.sample(range(lv.size), max(1, lv.size // 2))
        first = lv.char_table(cols)
        assert lv._char is None, key
        assert first == want(cols), key
        assert lv.char_table() == full[key], key
        again = rng.sample(range(lv.size), lv.size)
        assert lv.char_table(again) == want(again), key
        assert lv.char_table(cols) == first, key
        assert lv.char_table([]) == []


def test_coset_table_builds_only_the_class_columns():
    # X(0) of G(6,2,3) sums 13 of its 49 rows, one per orbit of the centre
    # of W (order 6) and of inversion, reads the 13 columns of its one level
    # that those rows name, and never assembles the whole level table
    clear_caches()
    params = GroupParams(6, 2, 3)
    coset_char_table(params)
    level = coset_algebra(params).levels[0]
    assert list(coset_algebra(params).levels) == [0]
    assert (len(level._cols), level.size) == (13, 98)
    assert level._char is None
    # the columns built over all levels; G(2,2,5) has a trivial centre and
    # e = 2, so every one of its 18 rows is summed; on G(6,2,3) q=3, where
    # p | 2q and so the coset is closed under inversion, inversion derives
    # rows as for q = 0
    for (e, p, n, q), built in [
        ((3, 3, 4, 0), 13), ((3, 3, 3, 0), 6), ((6, 6, 3, 1), 6), ((2, 2, 5, 0), 18),
        ((6, 2, 3, 3), 13),
    ]:
        clear_caches()
        params = GroupParams(e, p, n, q)
        coset_char_table(params)
        levels = coset_algebra(params).levels.values()
        assert sum(len(level._cols) for level in levels) == built, (e, p, n, q)


def test_char_table_of_symmetric_groups():
    # S_9 and S_10, where the expansion in 9 and 10 variables is too slow,
    # against the test-side Murnaghan-Nakayama oracle
    for n in (9, 10):
        lv = level_for(1, n)
        chi = level_char_table(lv).matrix.entries
        for a, (lam,) in enumerate(lv.partitions):
            for b, (mu,) in enumerate(lv.partitions):
                assert chi[a][b] == TRat.rational(mn_character(lam, mu), 1), (lam, mu)


def test_expand_roundtrip():
    lv = poly_level_for(2, 2)
    for alpha in lv.partitions:
        exp = lv.expand(lv.q_product(alpha, +1), "powersum")
        rebuilt = SymPoly.zero(lv.space)
        for beta, c in support(lv, exp).items():
            rebuilt = rebuilt + lv.powersum(beta).scale(c)
        assert rebuilt == lv.q_product(alpha, +1)


def differential_levels():
    """Every sub-level of the acceptance grid, plus levels with a proper
    power of zeta (h > 1) and the larger G(2,1,4) and G(3,1,3)."""
    levels = {}
    for e, p, n, q in GRID:
        for lv in coset_algebra(GroupParams(e, p, n, q)).levels.values():
            levels[(lv.E, lv.h, lv.ecols, lv.n)] = lv
    for lv in (Level(6, 2, 3, 2), Level(6, 3, 2, 2), level_for(2, 4), level_for(3, 3)):
        levels[(lv.E, lv.h, lv.ecols, lv.n)] = lv
    return levels


def schur_rows(lv):
    """The power-sum rows of the Schur functions of ``lv`` as TRat."""
    return [[TRat.from_cyc(c) for c in row] for row in s_in_p(lv)]


def test_basis_matrices_match_polynomial_oracle():
    # the power-sum rows of the Schur basis, the one basis the library
    # keeps, against Schur polynomials multiplied out
    levels = differential_levels()
    assert len(levels) == 11
    for key, lv in levels.items():
        px = poly_level(lv)
        want = linalg.mat_mul(px.m_matrix("schur"), px.m_matrix_inv("powersum"))
        assert schur_rows(lv) == want, key


# -- scalar product -----------------------------------------------------------


def test_scalar_product_power_sums():
    lv = poly_level_for(2, 2)
    for i, alpha in enumerate(lv.partitions):
        fa = lv.expand(lv.powersum(alpha), "powersum")
        for j, beta in enumerate(lv.partitions):
            fb = lv.expand(lv.powersum(beta), "powersum")
            got = scalar_from_p(lv.level, fa, fb)
            if i == j:
                assert got == lv.level.z_series(alpha)
            else:
                assert got.is_zero()


def test_scalar_product_q_m_duality():
    # the sign pairing consistent with the (1 - zeta^k t^part) centralizer
    # series: <q_(a,-), m_b> = delta and <m_a, q_(b,+)> = delta
    for e, n in [(1, 2), (2, 2), (1, 3), (3, 2)]:
        lv = poly_level_for(e, n)
        for alpha in lv.partitions:
            qa = lv.expand(lv.q_product(alpha, -1), "powersum")
            for beta in lv.partitions:
                mb = lv.expand(lv.monomial(beta), "powersum")
                got = scalar_from_p(lv.level, qa, mb)
                assert got == (lv.one if alpha == beta else lv.zero_rat), (alpha, beta)
                # dual pairing on the other side
                ma = lv.expand(lv.monomial(alpha), "powersum")
                qb = lv.expand(lv.q_product(beta, +1), "powersum")
                got2 = scalar_from_p(lv.level, ma, qb)
                assert got2 == (lv.one if alpha == beta else lv.zero_rat)


def test_schur_gram_matches_scalar_from_p():
    # one rational function per pair of power-sum coordinates, summed term
    # by term: no common denominator and no packed integers involved.
    # phi(5) = phi(8) = 4, so products of three field elements reach
    # zeta^9; Level(6, 2, 3, 2), a sub-level of G(6,2,4), has 3 colours in
    # Q(zeta_6)
    levels = [level_for(2, 3), level_for(3, 2), level_for(1, 4)]
    levels += [level_for(5, 2), level_for(8, 2), Level(6, 2, 3, 2)]
    for lv in levels:
        order = list(lv.partitions)
        random.Random(lv.ecols * 10 + lv.n).shuffle(order)
        gram = as_fractions(*schur_gram(lv, order))
        rows = schur_rows(lv)
        coords = [rows[lv.pindex[alpha]] for alpha in order]
        pairs = [(i, j) for i in range(lv.size) for j in range(lv.size)]
        if lv.size > 20:
            # level_for(8, 2): 44 partitions at ~40 ms per term-by-term
            # entry, so its diagonal and its first row only
            pairs = [(i, j) for i, j in pairs if i == j or i == 0]
        for i, j in pairs:
            assert gram[i][j] == scalar_from_p(lv, coords[i], coords[j]), (
                lv, order[i], order[j]
            )


def test_packed_class_sum_at_its_bound():
    # the slot width of the packed kernel comes from the L1 bound
    # sum_i max|X|_1 max|Y|_1 |W|_1; it is reached when one row is the
    # largest in every column and the weights are single monomials of one
    # sign, here by entry (1, 1) = -(2*2*5 + 3*3*7) t^2 = -83 t^2.  A
    # weight is (den, W): W / den, W the integer coordinates per power of t
    field = CycField(1)
    c = field.from_rational
    rows = [[c(1), c(1)], [c(2), c(3)]]
    weights = [(1, [[0], [0], [-5]]), (1, [[0], [0], [-7]])]
    gram = as_fractions(*gram_numerators(rows, rows, weights, TPoly.constant(field.one)))
    for a in range(2):
        for b in range(2):
            want = TRat(TPoly(field, ()))
            for x, y, (_, w) in zip(rows[a], rows[b], weights):
                want = want + TRat(TPoly(field, [c(v) for v, in w]).scale(x * y))
            assert gram[a][b] == want, (a, b)
    assert gram[1][1] == TRat(TPoly.t_power(field, 2, c(-83)))


def test_z_series_examples():
    lv = level_for(2, 1)
    f = lv.field
    t = TPoly(f, [f.one, -f.one])          # 1 - t  (coeff order ascending: 1, -1)
    t = TPoly(f, [f.one, -f.one])
    z = lv.z_series(P((1,), ()))
    two = TPoly.constant(f.from_rational(2))
    assert z == TRat(two, TPoly(f, [f.one, -f.one]))
    lv2 = level_for(2, 2)
    z2 = lv2.z_series(P((1,), (1,)))
    four = TPoly.constant(f.from_rational(4))
    onemt = TPoly(f, [f.one, -f.one])
    onept = TPoly(f, [f.one, f.one])
    assert z2 == TRat(four, onemt * onept)
    lv1 = level_for(1, 1)
    z1 = lv1.z_series(P((1,)))
    f1 = lv1.field
    assert z1 == TRat(TPoly.constant(f1.one), TPoly(f1, [f1.one, -f1.one]))


def test_cauchy_truncated():
    for e, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        ok, _ = cauchy_truncated(n, e)
        assert ok, (e, n)


def test_theta_twist():
    # schur: color shift by d permutes the label components
    for e, p in [(2, 2), (3, 3), (4, 2)]:
        d = e // p
        lv = poly_level_for(e, 2)
        for alpha in lv.partitions:
            assert lv.schur(alpha).shift_colors(d) == lv.schur(theta(alpha, p))
            assert lv.monomial(alpha).shift_colors(d) == lv.monomial(theta(alpha, p))
            assert lv.q_product(alpha, +1).shift_colors(d) == lv.q_product(
                theta(alpha, p), +1
            )
            # power sums pick up the phase zeta^(-delta(alpha) d)
            phase = lv.cyc_rat(lv.field.zeta((-delta(alpha) * d * lv.level.h) % lv.E))
            assert lv.powersum(alpha).shift_colors(d) == lv.powersum(alpha).scale(
                phase
            )
