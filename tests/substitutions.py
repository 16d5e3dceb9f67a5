"""t -> t^k and t -> 1/t on TPoly and TRat, by their definitions.

Reference helpers of the tests: the library stretches and reverses integer
coordinate lists instead (the Kostka assembly, the read-back and the
comparison in ``verify``) and has no use for these substitutions.
"""

from greenrefl.exact_arith import TPoly, TRat


def poly_subst_power(poly, k):
    """The TPoly poly(t^k), k >= 1."""
    if k == 1 or poly.is_zero():
        return poly
    out = [poly.field.zero] * (k * poly.degree() + 1)
    out[::k] = poly.coeffs
    return TPoly(poly.field, out)


def subst_power(f, k):
    """The TRat f(t^k), k >= 1: t -> t^k keeps a coprime numerator and
    denominator coprime, and a monic denominator monic, so no gcd is taken."""
    if k == 1:
        return f
    return TRat(poly_subst_power(f.num, k), poly_subst_power(f.den, k), reduce=False)


def subst_tinv(f):
    """The TRat g with g(t) = f(1/t), in canonical form."""
    a, b = f.num.degree(), f.den.degree()
    if a < 0:
        return f
    field = f.field
    num, den = f.num.reversed_coeffs(), f.den.reversed_coeffs()
    if b >= a:
        num = num * TPoly.t_power(field, b - a)
    else:
        den = den * TPoly.t_power(field, a - b)
    return TRat(num, den)
