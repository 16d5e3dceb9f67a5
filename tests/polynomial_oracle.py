"""Symmetric polynomials in coloured variables x_i^(k), multiplied out.

This is the test-side oracle for ``greenrefl.symfunc``, which works in
power-sum coordinates only.  Here every basis function is an explicit
polynomial in max(n, 1) variables per colour, and coordinates are read off
the coefficients on dominant monomials: a symmetric homogeneous polynomial
of degree n is determined by its coefficient on the dominant monomial of
each e-partition of n.  Power sums of colour index i mix the colours
through the root of unity,

    p_r^(i) = sum_j zeta^(i*j) p_r(x^(j)),

and the one-row q-functions come from the generating series

    q_(r,+)^(k) = [y^r]  prod_i (1 - t x_i^(k+1) y) / prod_i (1 - x_i^(k) y)

(with k-1 in place of k+1 for the minus sign).

A ``PolyLevel`` builds its polynomials from its ``Level``'s field,
``zeta_pow``, ``ecols``, ``n`` and ``partitions`` alone.  It never calls
``char_table`` or ``s_in_p``, so a test that compares the two shares no
basis-change code with the route it checks.  The library keeps only the
Schur basis; the monomial, power-sum and one-row q bases of the tests
come from here.
"""

from greenrefl import linalg
from greenrefl.exact_arith import TPoly, TRat
from greenrefl.symfunc import level_for


class VarSpace:
    """Layout of the colored variables: m_k variables of color k."""

    def __init__(self, m):
        self.m = tuple(m)
        self.ecols = len(self.m)
        self.offsets = []
        total = 0
        for mk in self.m:
            self.offsets.append(total)
            total += mk
        self.total = total
        self.zero_exp = (0,) * total

    def var_exp(self, k, i, power=1):
        exp = [0] * self.total
        exp[self.offsets[k] + i] = power
        return tuple(exp)

    def dominant_exp(self, alpha):
        """Exponent of the leading monomial of m_alpha."""
        exp = [0] * self.total
        for k, comp in enumerate(alpha):
            for i, part in enumerate(comp):
                exp[self.offsets[k] + i] = part
        return tuple(exp)

    def __eq__(self, other):
        return isinstance(other, VarSpace) and self.m == other.m

    def __hash__(self):
        return hash(self.m)


class SymPoly:
    """Sparse polynomial with TRat coefficients; immutable by convention."""

    __slots__ = ("space", "terms")

    def __init__(self, space, terms=None):
        self.space = space
        self.terms = terms if terms is not None else {}

    @staticmethod
    def zero(space):
        return SymPoly(space, {})

    @staticmethod
    def constant(space, coeff):
        if coeff.is_zero():
            return SymPoly.zero(space)
        return SymPoly(space, {space.zero_exp: coeff})

    def is_zero(self):
        return not self.terms

    def coefficient(self, exp):
        return self.terms.get(exp)

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            cur = out.get(exp)
            if cur is None:
                out[exp] = c
            else:
                s = cur + c
                if s.is_zero():
                    del out[exp]
                else:
                    out[exp] = s
        return SymPoly(self.space, out)

    def __neg__(self):
        return SymPoly(self.space, {exp: -c for exp, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                c = c1 * c2
                if c.is_zero():
                    continue
                exp = tuple(a + b for a, b in zip(e1, e2))
                cur = out.get(exp)
                if cur is None:
                    out[exp] = c
                else:
                    s = cur + c
                    if s.is_zero():
                        del out[exp]
                    else:
                        out[exp] = s
        return SymPoly(self.space, out)

    def scale(self, coeff):
        if coeff.is_zero():
            return SymPoly.zero(self.space)
        return SymPoly(self.space, {e: c * coeff for e, c in self.terms.items()})

    def conjugate(self):
        return SymPoly(self.space, {e: c.conjugate() for e, c in self.terms.items()})

    def shift_colors(self, d):
        """Substitution x_i^(k) -> x_i^(k+d) (colors mod ecols)."""
        space = self.space
        e = space.ecols
        out = {}
        for exp, c in self.terms.items():
            new = [0] * space.total
            for k in range(e):
                off = space.offsets[k]
                noff = space.offsets[(k + d) % e]
                for i in range(space.m[k]):
                    new[noff + i] = exp[off + i]
            out[tuple(new)] = c
        return SymPoly(space, out)

    def lift(self, target, color_offset):
        """Embed into a larger variable space starting at a color offset."""
        out = {}
        shift = target.offsets[color_offset]
        for exp, c in self.terms.items():
            new = [0] * target.total
            new[shift : shift + self.space.total] = exp
            out[tuple(new)] = c
        return SymPoly(target, out)

    def degree(self):
        return max((sum(exp) for exp in self.terms), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, SymPoly)
            and self.space == other.space
            and self.terms == other.terms
        )

    def __repr__(self):
        if self.is_zero():
            return "SymPoly(0)"
        items = sorted(self.terms.items(), reverse=True)
        return "SymPoly(" + " + ".join(f"({c})*x^{exp}" for exp, c in items[:6]) + (
            " + ..." if len(items) > 6 else ""
        ) + ")"


class PolyLevel:
    """The explicit polynomials of one ``Level``, with their monomial
    coordinates and the transition matrices between them."""

    def __init__(self, level):
        self.level = level
        self.E = level.E
        self.field = level.field
        self.ecols = level.ecols
        self.n = level.n
        self.partitions = level.partitions
        self.size = len(self.partitions)
        self.space = VarSpace((max(self.n, 1),) * self.ecols)
        self._sym = {}
        self._mats = {}
        self._mat_invs = {}
        self.one = TRat.from_cyc(self.field.one)
        self.zero_rat = TRat(TPoly(self.field, ()), reduce=False)

    # -- scalars -------------------------------------------------------------

    def cyc_rat(self, c):
        return TRat.from_cyc(c)

    def zeta_pow(self, k):
        return self.level.zeta_pow(k)

    # -- single-color building blocks ----------------------------------------

    def _hom_poly(self, k, deg):
        """Complete homogeneous polynomial of one color."""
        key = ("h", k, deg)
        if key not in self._sym:
            from itertools import combinations_with_replacement

            mk = self.space.m[k]
            off = self.space.offsets[k]
            terms = {}
            for combo in combinations_with_replacement(range(mk), deg):
                exp = [0] * self.space.total
                for i in combo:
                    exp[off + i] += 1
                terms[tuple(exp)] = self.one
            if deg == 0:
                terms = {self.space.zero_exp: self.one}
            self._sym[key] = SymPoly(self.space, terms)
        return self._sym[key]

    def _elem_poly(self, k, deg):
        key = ("e", k, deg)
        if key not in self._sym:
            from itertools import combinations

            mk = self.space.m[k]
            off = self.space.offsets[k]
            terms = {}
            if deg == 0:
                terms = {self.space.zero_exp: self.one}
            elif deg <= mk:
                for combo in combinations(range(mk), deg):
                    exp = [0] * self.space.total
                    for i in combo:
                        exp[off + i] = 1
                    terms[tuple(exp)] = self.one
            self._sym[key] = SymPoly(self.space, terms)
        return self._sym[key]

    def _plain_power_poly(self, k, r):
        key = ("pr", k, r)
        if key not in self._sym:
            off = self.space.offsets[k]
            terms = {}
            for i in range(self.space.m[k]):
                exp = [0] * self.space.total
                exp[off + i] = r
                terms[tuple(exp)] = self.one
            self._sym[key] = SymPoly(self.space, terms)
        return self._sym[key]

    def _schur_color(self, k, lam):
        """Schur polynomial of one color by semistandard tableau sum."""
        key = ("s", k, lam)
        if key not in self._sym:
            mk = self.space.m[k]
            off = self.space.offsets[k]
            fillings = [()]
            for ri, rlen in enumerate(lam):
                new = []
                for partial in fillings:
                    above = partial[ri - 1] if ri > 0 else None

                    def extend(row):
                        pos = len(row)
                        if pos == rlen:
                            new.append(partial + (tuple(row),))
                            return
                        lo = row[pos - 1] if pos > 0 else 0
                        if above is not None:
                            lo = max(lo, above[pos] + 1)
                        for v in range(lo, mk):
                            extend(row + [v])

                    extend([])
                fillings = new
            terms = {}
            for tab in fillings:
                exp = [0] * self.space.total
                for row in tab:
                    for v in row:
                        exp[off + v] += 1
                exp = tuple(exp)
                cur = terms.get(exp)
                terms[exp] = self.one if cur is None else cur + self.one
            if not lam:
                terms = {self.space.zero_exp: self.one}
            self._sym[key] = SymPoly(self.space, terms)
        return self._sym[key]

    def _monomial_color(self, k, lam):
        key = ("m", k, lam)
        if key not in self._sym:
            from itertools import permutations

            mk = self.space.m[k]
            off = self.space.offsets[k]
            padded = tuple(lam) + (0,) * (mk - len(lam))
            terms = {}
            for perm in set(permutations(padded)):
                exp = [0] * self.space.total
                for i, v in enumerate(perm):
                    exp[off + i] = v
                terms[tuple(exp)] = self.one
            self._sym[key] = SymPoly(self.space, terms)
        return self._sym[key]

    # -- the named bases ------------------------------------------------------

    def mixed_power(self, i, r):
        """p_r^(i): the zeta-weighted sum of color power sums."""
        key = ("P", i % self.ecols, r)
        if key not in self._sym:
            if r == 0:
                out = SymPoly.constant(self.space, self.one)
            else:
                out = SymPoly.zero(self.space)
                for j in range(self.ecols):
                    w = self.cyc_rat(self.zeta_pow(i * j))
                    out = out + self._plain_power_poly(j, r).scale(w)
            self._sym[key] = out
        return self._sym[key]

    def schur(self, alpha):
        key = ("S", alpha)
        if key not in self._sym:
            out = SymPoly.constant(self.space, self.one)
            for k, comp in enumerate(alpha):
                if comp:
                    out = out * self._schur_color(k, tuple(comp))
            self._sym[key] = out
        return self._sym[key]

    def monomial(self, alpha):
        key = ("M", alpha)
        if key not in self._sym:
            out = SymPoly.constant(self.space, self.one)
            for k, comp in enumerate(alpha):
                if comp:
                    out = out * self._monomial_color(k, tuple(comp))
            self._sym[key] = out
        return self._sym[key]

    def powersum(self, alpha):
        key = ("Pw", alpha)
        if key not in self._sym:
            out = SymPoly.constant(self.space, self.one)
            for k, comp in enumerate(alpha):
                for part in comp:
                    out = out * self.mixed_power(k, part)
            self._sym[key] = out
        return self._sym[key]

    def q_row(self, r, k, sign):
        """One-row q-function of color k from the generating series."""
        key = ("q", r, k, sign)
        if key not in self._sym:
            if r == 0:
                out = SymPoly.constant(self.space, self.one)
            else:
                kk = (k + (1 if sign > 0 else -1)) % self.ecols
                out = SymPoly.zero(self.space)
                for b in range(r + 1):
                    elem = self._elem_poly(kk, b)
                    if elem.is_zero():
                        continue
                    coeff = TRat(
                        TPoly.t_power(
                            self.field, b, self.field.from_rational((-1) ** b)
                        ),
                        reduce=False,
                    )
                    out = out + (elem * self._hom_poly(k, r - b)).scale(coeff)
            self._sym[key] = out
        return self._sym[key]

    def q_product(self, alpha, sign):
        key = ("Q", alpha, sign)
        if key not in self._sym:
            out = SymPoly.constant(self.space, self.one)
            for k, comp in enumerate(alpha):
                for part in comp:
                    out = out * self.q_row(part, k, sign)
            self._sym[key] = out
        return self._sym[key]

    def basis_poly(self, basis, alpha):
        if basis == "schur":
            return self.schur(alpha)
        if basis == "monomial":
            return self.monomial(alpha)
        if basis == "powersum":
            return self.powersum(alpha)
        if basis == "qplus":
            return self.q_product(alpha, +1)
        if basis == "qminus":
            return self.q_product(alpha, -1)
        raise ValueError(f"unknown basis {basis!r}")

    # -- coordinates and conversion -------------------------------------------

    def m_coords(self, poly):
        """Monomial-basis coordinates (coefficients on dominant exponents)."""
        out = []
        for alpha in self.partitions:
            c = poly.coefficient(self.space.dominant_exp(alpha))
            out.append(c if c is not None else self.zero_rat)
        return out

    def m_matrix(self, basis):
        """Rows: m-coordinates of the basis elements, aligned with partitions."""
        if basis not in self._mats:
            self._mats[basis] = [
                self.m_coords(self.basis_poly(basis, alpha)) for alpha in self.partitions
            ]
        return self._mats[basis]

    def m_matrix_inv(self, basis):
        if basis not in self._mat_invs:
            self._mat_invs[basis] = linalg.invert(self.m_matrix(basis))
        return self._mat_invs[basis]

    def expand_mcoords(self, mvec, basis):
        if basis == "monomial":
            return list(mvec)
        inv = self.m_matrix_inv(basis)
        return [
            _dot(mvec, [inv[i][j] for i in range(self.size)], self.zero_rat)
            for j in range(self.size)
        ]

    def expand(self, poly, basis):
        """Exact coordinates of a homogeneous symmetric polynomial in the
        named basis, aligned with ``partitions``."""
        return self.expand_mcoords(self.m_coords(poly), basis)


def _dot(u, v, zero):
    acc = zero
    for x, y in zip(u, v):
        if not x.is_zero() and not y.is_zero():
            acc = acc + x * y
    return acc


_POLY_LEVELS = {}


def poly_level(level):
    """The polynomial oracle of ``level``, one per level object."""
    if level not in _POLY_LEVELS:
        _POLY_LEVELS[level] = PolyLevel(level)
    return _POLY_LEVELS[level]


def poly_level_for(e, n):
    """The polynomial oracle of the standalone level of G(e,1,n)."""
    return poly_level(level_for(e, n))


def cauchy_truncated(n, e):
    """Check the degree-(n, n) piece of the reproducing kernel identity

        sum_a q_(a,-)(x) m_a(y) = sum_a m_a(x) q_(a,+)(y)
                                = sum_a z_a(t)^(-1) p_a(x) conj(p_a)(y).

    The q-sign pairing is the one consistent with the centralizer series
    carrying (1 - zeta^k t^part) factors; it is what makes the bases
    {q_(a,-)} / {m_a} and {m_a} / {q_(a,+)} dual under the scalar product.

    Returns (identity holds, the common polynomial in the doubled space).
    """
    lv = poly_level_for(e, n)
    mm = lv.space.m
    union = VarSpace(mm + mm)
    lhs = SymPoly.zero(union)
    mid = SymPoly.zero(union)
    rhs = SymPoly.zero(union)
    for alpha in lv.partitions:
        qx = lv.q_product(alpha, -1).lift(union, 0)
        my = lv.monomial(alpha).lift(union, e)
        lhs = lhs + qx * my
        mx = lv.monomial(alpha).lift(union, 0)
        qy = lv.q_product(alpha, +1).lift(union, e)
        mid = mid + mx * qy
        px = lv.powersum(alpha).lift(union, 0)
        py = lv.powersum(alpha).conjugate().lift(union, e)
        rhs = rhs + (px * py).scale(lv.level.z_series(alpha).inverse())
    return lhs == rhs and mid == rhs, lhs
