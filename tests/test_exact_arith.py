import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from greenrefl.exact_arith import (
    CycField,
    CycNum,
    SeriesRing,
    TPoly,
    TRat,
    cyc_make,
    cyclotomic_polynomial,
    kron_digits,
    kron_pack,
)
from greenrefl.linalg import PackedProduct

from substitutions import poly_subst_power, subst_power, subst_tinv


def tp(field, *ints):
    """Polynomial with integer coefficients, ascending."""
    return TPoly(field, [field.from_rational(c) for c in ints])


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyc_make_examples():
    # zeta_4^2 = -1
    assert cyc_make(4, [(2, 1)]) == cyc_make(4, [(0, -1)])
    # sum of all cube roots of unity vanishes
    assert cyc_make(3, [(0, 1), (1, 1), (2, 1)]).is_zero()
    # zeta_6 reduced mod x^2 - x + 1 stays the basis vector (0, 1)
    z6 = cyc_make(6, [(1, 1)])
    assert z6.coeffs == (Fraction(0), Fraction(1))
    # zeta^e == 1, exponents reduced mod e
    assert cyc_make(5, [(7, 1)]) == CycField(5).zeta(2)
    with pytest.raises(ValueError):
        cyc_make(0, [])


def test_cyc_basic_identities():
    for e in range(1, 13):
        field = CycField(e)
        z = field.zeta()
        # zeta^e = 1
        acc = field.one
        for _ in range(e):
            acc = acc * z
        assert acc == field.one
        if e > 1:
            total = field.zero
            for k in range(e):
                total = total + field.zeta(k)
            assert total.is_zero()


def test_cyc_inverse():
    field = CycField(7)
    assert field.zeta().inverse() == field.zeta(6)
    assert field.from_rational(2).inverse() == field.from_rational(Fraction(1, 2))
    # 1 + zeta_3 equals -zeta_3^2, hence its inverse is -zeta_3
    f3 = CycField(3)
    a = f3.one + f3.zeta()
    assert a * a.inverse() == f3.one
    assert a.inverse() == -f3.zeta()
    with pytest.raises(ZeroDivisionError):
        f3.zero.inverse()


def test_cyc_conjugate():
    f5 = CycField(5)
    assert f5.zeta().conjugate() == f5.zeta(4)
    assert f5.from_rational(Fraction(5, 3)).conjugate() == f5.from_rational(Fraction(5, 3))
    f2 = CycField(2)
    assert f2.from_rational(-1).conjugate() == f2.from_rational(-1)


def test_cyc_galois():
    # sigma_k sends zeta to zeta^k and is a ring homomorphism
    rng = random.Random(20261018)
    for e in (3, 4, 5, 7, 8, 9, 12):
        field = CycField(e)
        for k in range(1, e):
            if gcd(k, e) != 1:
                continue
            assert field.zeta().galois(k) == field.zeta(k)
            for _ in range(4):
                a, b = _random_cyc(field, rng), _random_cyc(field, rng)
                assert (a * b).galois(k) == a.galois(k) * b.galois(k), (e, k)
                assert (a + b).galois(k) == a.galois(k) + b.galois(k), (e, k)
    with pytest.raises(ValueError):
        CycField(6).zeta().galois(2)


def _random_cyc(field, rng):
    out = field.zero
    for i in range(field.degree):
        out = out + field.zeta(i) * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return out


def test_field_axioms_random():
    rng = random.Random(20240531)
    for e in range(1, 13):
        field = CycField(e)
        for _ in range(12):
            a, b, c = (_random_cyc(field, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            if not a.is_zero():
                assert a * a.inverse() == field.one
            # conjugation is an involution and multiplicative
            assert a.conjugate().conjugate() == a
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()


def test_cyc_embed():
    f3 = CycField(3)
    f6 = CycField(6)
    z3 = f3.zeta()
    assert z3.embed(6) == f6.zeta(2)
    a = f3.one + f3.zeta() * 2
    assert a.embed(6) == f6.one + f6.zeta(2) * 2


def test_cyc_json_roundtrip():
    a = cyc_make(6, [(0, Fraction(1, 2)), (1, -3)])
    assert CycNum.from_json(a.to_json()) == a


def test_cyc_json_coordinates_in_lowest_terms():
    field = CycField(5)
    a = field.make([2, -3, 0, 20], 4)
    assert a.den == 4
    assert a.coordinate_texts() == ["1/2", "-3/4", "0", "5"]
    assert a.coordinate_texts() == [str(c) for c in a.coeffs]
    assert a.to_json() == {"e": 5, "coeffs": ["1/2", "-3/4", "0", "5"]}
    assert CycNum.from_json(a.to_json()) == a
    assert field.make([-6, 0, 3, 0], 1).coordinate_texts() == ["-6", "0", "3", "0"]
    zero = TRat(TPoly(field, ()))
    assert zero.to_json() == {"num": [], "den": [{"e": 5, "coeffs": ["1", "0", "0", "0"]}]}
    assert TRat.from_json(zero.to_json()) == zero
    assert a.json_text() == json.dumps(a.to_json(), sort_keys=True, separators=(",", ":"))
    for x in (zero, TRat(TPoly(field, [field.zero, a]), TPoly(field, [a, field.one]))):
        assert TRat.coeffs_json_text(x.num.coeffs, x.den.coeffs) == json.dumps(
            x.to_json(), sort_keys=True, separators=(",", ":"))


def test_trat_normalize_examples():
    field = CycField(1)
    t2m1 = tp(field, -1, 0, 1)
    tm1 = tp(field, -1, 1)
    f = TRat(t2m1, tm1)
    assert f == TRat(tp(field, 1, 1))        # (t^2-1)/(t-1) = t+1
    assert f.is_polynomial()
    zero = TRat(tp(field), tp(field, 2, 0, 0, 1))
    assert zero.is_zero() and zero.den == tp(field, 1)
    # content normalization: (2t)/2 -> t with monic denominator
    g = TRat(tp(field, 0, 2), tp(field, 2))
    assert g == TRat.t(field)
    with pytest.raises(ZeroDivisionError):
        TRat(tp(field, 1), tp(field))


def test_trat_subst_tinv_examples():
    field = CycField(1)
    t = TRat.t(field)
    t3 = TRat.t(field, 3)
    assert subst_tinv(t3) == t3.inverse()
    one = TRat.rational(1)
    assert subst_tinv(t + one) == (one + t) / t
    c = TRat.rational(Fraction(7, 2))
    assert subst_tinv(c) == c
    # involution
    rng = random.Random(7)
    for _ in range(20):
        num = tp(field, *[rng.randint(-3, 3) for _ in range(4)])
        den = tp(field, *[rng.randint(-3, 3) for _ in range(3)], 1)
        f = TRat(num, den)
        assert subst_tinv(subst_tinv(f)) == f


def test_trat_canonical_random():
    rng = random.Random(99)
    field = CycField(3)

    def rnd_poly(deg):
        return TPoly(field, [_random_cyc(field, rng) for _ in range(deg + 1)])

    for _ in range(25):
        a = TRat(rnd_poly(3), rnd_poly(2) + tp(field, *([0] * 3), 1))
        b = TRat(rnd_poly(2), rnd_poly(1) + tp(field, 0, 0, 1))
        # normalization is idempotent
        for f in (a, b, a + b, a * b):
            assert TRat(f.num, f.den) == f
            assert f.den.leading().is_one()
            if not f.is_zero():
                assert f.num.gcd(f.den).degree() == 0
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a * b) / b == a


def test_trat_subst_power_and_eval():
    field = CycField(2)
    t = TRat.t(field)
    f = (t + TRat.rational(1, 2)) / (t * t)
    g = subst_power(f, 3)
    t3 = TRat.t(field, 3)
    assert g == (t3 + TRat.rational(1, 2)) / (t3 * t3)
    assert (t + TRat.rational(1, 2)).eval_zero() == field.one
    # t -> t^k keeps a reduced fraction reduced, so the test helper
    # subst_power skips the gcd; it must equal the fully reduced construction
    rng = random.Random(20261018)
    for e in (1, 2, 3, 4, 6):
        field = CycField(e)

        def poly():
            return TPoly(field, [
                sum((field.zeta(j) * rng.randint(-2, 2) for j in range(field.degree)), field.zero)
                for _ in range(rng.randint(1, 4))
            ])

        for _ in range(20):
            num, den, common = poly(), poly(), poly()
            if den.is_zero() or common.is_zero():
                continue
            f = TRat(num * common, den * common)
            for k in (2, 3, 5):
                want = TRat(poly_subst_power(f.num, k), poly_subst_power(f.den, k))
                assert subst_power(f, k) == want, (e, f, k)
                assert want == TRat(poly_subst_power(num, k), poly_subst_power(den, k))


def test_trat_conjugate():
    field = CycField(4)
    i = field.zeta()
    f = TRat(TPoly(field, [i, field.one]), TPoly(field, [field.one, i]))
    g = f.conjugate()
    assert g == TRat(TPoly(field, [i.conjugate(), field.one]),
                     TPoly(field, [field.one, i.conjugate()]))
    assert g.conjugate() == f


def test_trat_json_roundtrip():
    field = CycField(3)
    f = TRat(TPoly(field, [field.zeta(), field.one]), TPoly(field, [field.one, field.one]))
    assert TRat.from_json(f.to_json()) == f


def test_tpoly_str():
    field = CycField(3)
    p = TPoly(field, [field.one, field.zero, field.from_rational(2)])
    assert str(p) == "2*t^2+1"
    f = TRat(TPoly(field, [field.one]), TPoly(field, [-field.one, field.one]))
    assert str(f) == "1/(t-1)"


def test_series_ring_is_z_t_mod_t_m():
    # one int per element, encoded from and decoded to coordinate lists;
    # decode reads balanced digits back, products and inverses are those of
    # Z[t]/(t^M), and the units are the odd ints
    field = CycField(5)
    ring = SeriesRing(field, 4, 16)
    a, b = tp(field, 1, -3, 0, 7), tp(field, -1, 2, -5)
    x, y = ring.encode(a.coords()), ring.encode(b.coords())
    assert isinstance(x.c, int)
    assert ring.decode(x) == a.coords() and ring.decode(y) == b.coords()
    assert ring.decode(x * y) == TPoly(field, (a * b).coeffs[:4]).coords()
    assert ring.decode(x - x) == [[]] * 4 and (x - x).is_zero()
    assert ring.decode((x * y) / y) == a.coords()
    assert ring.decode(x * x.inverse()) == tp(field, 1).coords()
    with pytest.raises(ArithmeticError, match="not a unit"):
        ring.encode(tp(field, 2, 1).coords()).inverse()
    with pytest.raises(ValueError, match=re.escape("coefficient 1+z of (1+z)*t+1 is not a rational")):
        ring.encode(TPoly(field, [field.one, field.one + field.zeta()]).coords())


def test_coordinate_lists_round_trip():
    # TPoly.coords and TPoly.from_coords are inverse on Z[zeta][t]: one list
    # per power of zeta, no trailing zeros, a rational coefficient read back
    # as the field's shared CycNum
    rng = random.Random(20261021)
    for e in (1, 3, 5, 12):
        field = CycField(e)
        for _ in range(20):
            coeffs = [field.make([rng.choice([0, 0, -1, 1, rng.randint(-9999, 9999)])
                                  for _ in range(field.degree)], 1)
                      for _ in range(rng.randint(0, 5))]
            poly = TPoly(field, coeffs)
            coords = poly.coords()
            assert len(coords) == field.degree
            assert all(not c or c[-1] for c in coords)
            assert TPoly.from_coords(field, coords) == poly
    field = CycField(3)
    assert TPoly.from_coords(field, [[0, 7], []]).coeffs[1] is field.integer(7)
    assert field.integer(0) is field.zero


def test_kron_digits_read_back_kron_pack():
    # balanced digits read back every coefficient in [-2^(B-1), 2^(B-1)),
    # the extremes, inner zeros and a negative top coefficient included,
    # and stop at the last nonzero one, so trailing zeros are dropped
    rng = random.Random(20261018)
    for bits in (2, 3, 8, 61, 64):
        lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        fixed = [hi, 0, 0, lo, -hi, 0, lo, -1]
        assert kron_digits(kron_pack(fixed + [0, 0], bits), bits) == fixed
        for _ in range(30):
            coeffs = [rng.choice([lo, -hi, hi, 0, rng.randint(lo, hi)])
                      for _ in range(rng.randint(1, 12))]
            coeffs[-1] = rng.choice([lo, -hi, -1])
            assert kron_digits(kron_pack(coeffs + [0] * rng.randint(0, 3), bits), bits) == coeffs
    assert kron_pack([], 8) == 0 and kron_digits(0, 8) == []


def test_fold_commutes_with_packing():
    # fold is Z-linear, so folding packed coordinates equals packing the
    # folded coefficients of each power of t; and fold agrees with the
    # field arithmetic
    rng = random.Random(20261019)
    bits, degree = 40, 5
    for e in (1, 3, 5, 8, 12):
        field = CycField(e)
        length = 3 * field.degree - 2
        digits = [[rng.randint(-99, 99) for _ in range(degree)] for _ in range(length)]
        by_power = [field.fold([row[d] for row in digits]) for d in range(degree)]
        assert field.fold([kron_pack(row, bits) for row in digits]) == [
            kron_pack([coeffs[j] for coeffs in by_power], bits) for j in range(field.degree)
        ]
        vec = [row[0] for row in digits]
        expect = field.zero
        for m, c in enumerate(vec):
            expect = expect + field.zeta(m) * c
        assert field.from_ring(vec, 3) == expect * Fraction(1, 3)


def test_packed_product_matches_the_tpoly_product():
    rng = random.Random(20261020)
    for e in (1, 3, 5):
        field = CycField(e)

        def entry():
            if rng.random() < 0.3:
                return TPoly(field, ())
            return TPoly(field, [
                field.make([rng.randint(-9, 9) for _ in range(field.degree)], 1)
                for _ in range(rng.randint(1, 4))
            ])

        def coords(mat):
            return [[x.coords() for x in row] for row in mat]

        left, mid, right = ([[entry() for _ in range(3)] for _ in range(3)] for _ in range(3))
        want = [[sum((left[i][k] * mid[k][l] * right[l][j] for k in range(3) for l in range(3)),
                     TPoly(field, ())) for j in range(3)] for i in range(3)]
        factors = [coords(mat) for mat in (left, mid, right)]
        product = PackedProduct(field, *factors, coords(want))
        assert product.matches()
        assert [[product.entry(i, j) for j in range(3)] for i in range(3)] == coords(want)
        want[2][1] = want[2][1] + TPoly.t_power(field, 1)
        assert not PackedProduct(field, *factors, coords(want)).matches()


def test_packed_product_refuses_a_fractional_coefficient():
    # the packed kernels take coordinate lists, which hold integers only:
    # a fractional coefficient, or one from another field of the same
    # degree, is refused by name where a TPoly is converted, and an entry
    # with the wrong number of lists by the product itself
    field = CycField(3)
    one = tp(field, 1).coords()
    half = TPoly(field, [field.one, field.from_rational(Fraction(1, 2))])
    with pytest.raises(ValueError, match="coefficient 1/2 of .* not integral"):
        half.coords()
    with pytest.raises(ValueError, match="coefficient z of .* not integral in Q\\(zeta_6\\)"):
        TPoly.constant(field.zeta()).coords(CycField(6))
    with pytest.raises(ValueError, match="1 coordinate lists, not the 2 of Q\\(zeta_3\\)"):
        PackedProduct(field, [[one]], [[[[1]]]], [[one]])
    with pytest.raises(ValueError, match="3 coordinate lists, not the 2"):
        PackedProduct(field, [[one]], [[one]], [[one]], [[[[1], [], []]]])
