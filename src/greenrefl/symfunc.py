"""Symmetric polynomials in colored variables x_i^(k).

A color structure has ``ecols`` colors with max(n, 1) variables each; a
polynomial is a sparse map from exponent vectors (flat tuples over all
variables) to TRat coefficients.  The classical bases (Schur, monomial,
power sum) are taken color-wise; power sums of color-index i mix the
colors through the root of unity:

    p_r^(i) = sum_j zeta^(i*j) p_r(x^(j)),

and the one-row q-functions are produced by the generating series

    q_(r,+)^(k) = [y^r]  prod_i (1 - t x_i^(k+1) y) / prod_i (1 - x_i^(k) y)

(with k-1 in place of k+1 for the minus sign).

The character table of a level (the coefficients of the Schur functions
in the power sums) comes from the wreath-product character formula: the
colour-wise Murnaghan-Nakayama rule, with no polynomial expansion.  The
explicit polynomials serve the q and monomial bases, ``expand``/``convert``
and the reproducing-kernel check; their conversions go through monomial
coordinates: a symmetric homogeneous polynomial of degree n is determined
by its coefficients on the dominant monomial of each e-partition of n, and
the transition matrices between bases are cached per level.  A ``Level``
bundles one color structure with a choice of root of unity (an element of
an ambient cyclotomic field, so that nested levels can share a single
field).

Every t-deformed scalar product of two families given by their values on
the classes is one class sum, ``weighted_gram``: the Schur Gram matrix of
a level here, and Omega' and the fake degrees of the coset layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .combinatorics import enumerate_epartitions, ep_length, ep_size
from .exact_arith import CycField, TPoly, TRat
from . import linalg


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


@dataclass(frozen=True)
class BasisExpansion:
    """Coordinates of a symmetric function in one of the named bases."""

    level: "Level"
    basis: str                     # schur | monomial | powersum | qplus | qminus
    coeffs: tuple                  # aligned with level.partitions

    def coeff(self, alpha):
        return self.coeffs[self.level.pindex[alpha]]

    def support(self):
        return {
            self.level.partitions[i]: c
            for i, c in enumerate(self.coeffs)
            if not c.is_zero()
        }

    def to_json(self):
        from .combinatorics import ep_str

        return {
            "basis": self.basis,
            "coeffs": {
                ep_str(alpha): c.to_json() for alpha, c in sorted(self.support().items())
            },
        }


class Level:
    """One color structure: ecols colors, a root of unity of that order
    living in an ambient field Q(zeta_E), and a fixed homogeneous degree n.

    All transition matrices between the classical bases are cached here.
    """

    _cache = {}

    def __new__(cls, E, h, ecols, n):
        key = (E, h, ecols, n)
        level = cls._cache.get(key)
        if level is None:
            level = object.__new__(cls)
            level._init(E, h, ecols, n)
            cls._cache[key] = level
        return level

    def _init(self, E, h, ecols, n):
        field = CycField(E)
        if E // gcd(E, h) != ecols:
            raise ValueError("zeta_E^h must have order ecols")
        self.E = E
        self.h = h
        self.field = field
        self.ecols = ecols
        self.n = n
        self.zeta = field.zeta(h)
        self.space = VarSpace((max(n, 1),) * ecols)
        self.partitions = tuple(enumerate_epartitions(n, ecols))
        self.pindex = {alpha: i for i, alpha in enumerate(self.partitions)}
        self.size = len(self.partitions)
        self._sym = {}
        self._mats = {}
        self._mat_invs = {}
        self._char = None
        self._s_in_p = None
        self._zser = {}
        self.t = TRat.t(field)
        self.one = TRat.from_cyc(field.one)
        self.zero_rat = TRat(TPoly(field, ()), reduce=False)

    def __repr__(self):
        return f"Level(E={self.E}, zeta^={self.h}, colors={self.ecols}, n={self.n})"

    def __hash__(self):
        return hash((self.E, self.h, self.ecols, self.n))

    def __eq__(self, other):
        return self is other

    # -- scalars -------------------------------------------------------------

    def cyc_rat(self, c):
        return TRat.from_cyc(c)

    def zeta_pow(self, k):
        return self.field.zeta((k * self.h) % self.E)

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

    def basis_matrix(self, basis):
        """Rows: m-coordinates of the basis elements, aligned with partitions."""
        if basis not in self._mats:
            self._mats[basis] = [
                self.m_coords(self.basis_poly(basis, alpha)) for alpha in self.partitions
            ]
        return self._mats[basis]

    def basis_matrix_inv(self, basis):
        if basis not in self._mat_invs:
            self._mat_invs[basis] = linalg.invert(self.basis_matrix(basis))
        return self._mat_invs[basis]

    def expand_mcoords(self, mvec, basis):
        if basis == "monomial":
            return list(mvec)
        inv = self.basis_matrix_inv(basis)
        return [
            _dot(mvec, [inv[i][j] for i in range(self.size)], self.zero_rat)
            for j in range(self.size)
        ]

    def expand(self, poly, basis):
        """Exact coordinates of a homogeneous symmetric polynomial."""
        coords = self.expand_mcoords(self.m_coords(poly), basis)
        return BasisExpansion(self, basis, tuple(coords))

    def convert(self, expansion, basis):
        if expansion.basis == basis:
            return expansion
        mat = self.basis_matrix(expansion.basis)
        mvec = [
            _dot(expansion.coeffs, [mat[i][j] for i in range(self.size)], self.zero_rat)
            for j in range(self.size)
        ]
        return BasisExpansion(self, basis, tuple(self.expand_mcoords(mvec, basis)))

    # -- character table and centralizers --------------------------------------

    def char_table(self):
        """Matrix chi[alpha][beta]: coefficient of s_alpha in p_beta.

        Computed by the wreath-product character formula (Macdonald, ch. I,
        appendix B): expanding p_r^(i) = sum_j zeta^(i*j) p_r(x^(j)) sends
        every part r of colour index i to one colour j with weight
        zeta^(i*j), so p_beta is a weighted sum of products
        prod_j p_(rho^(j))(x^(j)), and

            chi[alpha][beta] = sum_rho weight(rho) prod_j chi^(alpha^(j))(rho^(j))

        with S_n characters from the Murnaghan-Nakayama rule.  Only rho
        with |rho^(j)| = |alpha^(j)| for every j contribute."""
        if self._char is None:
            memo = {}
            by_sizes = {}
            for a, alpha in enumerate(self.partitions):
                by_sizes.setdefault(tuple(map(sum, alpha)), []).append(a)
            chi = [[None] * self.size for _ in range(self.size)]
            for b, beta in enumerate(self.partitions):
                acc = [self.field.zero] * self.size
                for rho, weight in self._colour_distributions(beta).items():
                    for a in by_sizes.get(tuple(map(sum, rho)), ()):
                        value = 1
                        for lam, mu in zip(self.partitions[a], rho):
                            value *= _sn_character(lam, mu, memo)
                            if not value:
                                break
                        if value:
                            acc[a] = acc[a] + weight * value
                for a, c in enumerate(acc):
                    chi[a][b] = TRat.from_cyc(c)
            self._char = chi
        return self._char

    def _colour_distributions(self, beta):
        """p_beta as {(rho^(0), ..., rho^(ecols-1)): weight}, the weighted
        products prod_j p_(rho^(j))(x^(j)) with equal rho grouped."""
        zetas = [self.zeta_pow(k) for k in range(self.ecols)]
        dists = {((),) * self.ecols: self.field.one}
        for i, comp in enumerate(beta):
            for r in comp:
                nxt = {}
                for rho, weight in dists.items():
                    for j in range(self.ecols):
                        part = tuple(sorted(rho[j] + (r,), reverse=True))
                        key = rho[:j] + (part,) + rho[j + 1 :]
                        w = weight * zetas[i * j % self.ecols]
                        nxt[key] = nxt[key] + w if key in nxt else w
                dists = nxt
        return dists

    def z_int(self, beta):
        """Centralizer order: ecols^length * prod of the symbol z-factors."""
        out = self.ecols ** ep_length(beta)
        for comp in beta:
            mult = {}
            for part in comp:
                mult[part] = mult.get(part, 0) + 1
            for part, cnt in mult.items():
                out *= part ** cnt
                for i in range(1, cnt + 1):
                    out *= i
        return out

    def det_poly(self, beta):
        """det(t id - w_beta) = prod over parts (t^part - zeta^k)."""
        poly = TPoly.constant(self.field.one)
        for k, comp in enumerate(beta):
            for part in comp:
                poly = poly * (
                    TPoly.t_power(self.field, part) - TPoly.constant(self.zeta_pow(k))
                )
        return poly

    def z_series(self, beta):
        """Deformed centralizer: z_beta / prod over parts (1 - zeta^k t^part)."""
        if beta not in self._zser:
            num = TPoly.constant(self.field.from_rational(self.z_int(beta)))
            self._zser[beta] = TRat(num, self.det_poly(beta).reversed_coeffs())
        return self._zser[beta]

    def s_in_p(self):
        """Rows: powersum coordinates of the Schur functions (constants)."""
        if self._s_in_p is None:
            chi = self.char_table()
            rows = []
            for a in range(self.size):
                row = []
                for b, beta in enumerate(self.partitions):
                    c = chi[a][b].to_cyc().conjugate()
                    row.append(c * Fraction(1, self.z_int(beta)))
                rows.append(row)
            self._s_in_p = rows
        return self._s_in_p

    def schur_gram(self, order):
        """G[a][b] = <s_a, s_b> for a, b running over ``order``: the class
        sum of the ``s_in_p`` rows against the z-series."""
        s_in_p = self.s_in_p()
        rows = [s_in_p[self.pindex[alpha]] for alpha in order]
        zser = [self.z_series(beta) for beta in self.partitions]
        return weighted_gram(rows, rows, zser)

    def p_coords_of_s_vector(self, svec):
        """Powersum coordinates of a function given in Schur coordinates."""
        sp = self.s_in_p()
        out = []
        for j in range(self.size):
            acc = self.zero_rat
            for i, c in enumerate(svec):
                if not c.is_zero():
                    w = sp[i][j]
                    if not w.is_zero():
                        acc = acc + c.scale_cyc(w)
            out.append(acc)
        return out

    def scalar_from_p(self, u, v, subst=1):
        """<f, g> from powersum coordinate vectors; z-series in t^subst."""
        acc = self.zero_rat
        for ug, vg, beta in zip(u, v, self.partitions):
            if ug.is_zero() or vg.is_zero():
                continue
            z = self.z_series(beta)
            if subst != 1:
                z = z.subst_power(subst)
            acc = acc + ug * vg.conjugate() * z
        return acc


def weighted_gram(left, right, weights):
    """M[a][b] = sum_i left[a][i] conj(right[b][i]) weights[i].

    The rows hold CycNum values and the weights are TRat.  Every weight is
    rewritten over one common denominator, the lcm L of their denominators,
    so an entry is one polynomial combination reduced against L once."""
    field = weights[0].field
    common = TPoly.constant(field.one)
    for w in weights:
        common = common * w.den.divmod(common.gcd(w.den))[0]
    nums = [w.num * common.divmod(w.den)[0] for w in weights]
    conj_right = [[c.conjugate() for c in row] for row in right]
    gram = []
    for row in left:
        out = []
        for conj_row in conj_right:
            num = TPoly(field, (), trusted=True)
            for x, y, w in zip(row, conj_row, nums):
                if not x.is_zero() and not y.is_zero():
                    num = num + w.scale(x * y)
            out.append(TRat(num, common))
        gram.append(out)
    return gram


def _sn_character(lam, mu, memo):
    """chi^lam(mu) of S_n by the Murnaghan-Nakayama rule on beta-numbers:
    removing an r-border strip moves one bead r places down the abacus,
    with sign (-1)^(beads jumped over).  ``mu`` is weakly decreasing;
    ``memo`` caches values for the duration of one table build."""
    if not mu:
        return 1
    key = (lam, mu)
    value = memo.get(key)
    if value is None:
        r, rest = mu[0], mu[1:]
        rows = len(lam)
        beads = [part + rows - 1 - i for i, part in enumerate(lam)]
        occupied = set(beads)
        value = 0
        for i, b in enumerate(beads):
            nb = b - r
            if nb < 0 or nb in occupied:
                continue
            jumped = sum(1 for x in beads if nb < x < b)
            moved = sorted(beads[:i] + beads[i + 1 :] + [nb], reverse=True)
            shape = tuple(
                x - (rows - 1 - k) for k, x in enumerate(moved) if x > rows - 1 - k
            )
            term = _sn_character(shape, rest, memo)
            value += -term if jumped % 2 else term
        memo[key] = value
    return value


def _dot(u, v, zero):
    acc = zero
    for x, y in zip(u, v):
        if not x.is_zero() and not y.is_zero():
            acc = acc + x * y
    return acc


def level_for(e, n):
    """Standalone level for G(e,1,n) with zeta = zeta_e."""
    return Level(e, 1, e, n)


# ---------------------------------------------------------------------------
# public operations in terms of a standalone level


def schur(alpha):
    lv = level_for(len(alpha), ep_size(alpha))
    return lv.schur(alpha)


def monomial(alpha):
    lv = level_for(len(alpha), ep_size(alpha))
    return lv.monomial(alpha)


def powersum(alpha):
    lv = level_for(len(alpha), ep_size(alpha))
    return lv.powersum(alpha)


def q_row(r, k, sign, e, n=None):
    lv = level_for(e, n if n is not None else r)
    return lv.q_row(r, k, 1 if str(sign) in ("+", "1", "+1") else -1)


def q_product(alpha, sign):
    lv = level_for(len(alpha), ep_size(alpha))
    return lv.q_product(alpha, 1 if str(sign) in ("+", "1", "+1") else -1)


def expand(poly, basis, n, e=None):
    lv = level_for(e if e is not None else poly.space.ecols, n)
    return lv.expand(poly, basis)


def scalar_product(f, g):
    """Sesquilinear product; 0 when degrees (or levels) differ."""
    if f.level is not g.level:
        return f.level.zero_rat
    lv = f.level
    fp = lv.convert(f, "powersum").coeffs
    gp = lv.convert(g, "powersum").coeffs
    return lv.scalar_from_p(fp, gp)


def cauchy_truncated(n, e):
    """Check the degree-(n, n) piece of the reproducing kernel identity

        sum_a q_(a,-)(x) m_a(y) = sum_a m_a(x) q_(a,+)(y)
                                = sum_a z_a(t)^(-1) p_a(x) conj(p_a)(y).

    The q-sign pairing is the one consistent with the centralizer series
    carrying (1 - zeta^k t^part) factors; it is what makes the bases
    {q_(a,-)} / {m_a} and {m_a} / {q_(a,+)} dual under the scalar product.

    Returns (identity holds, the common polynomial in the doubled space).
    """
    lv = level_for(e, n)
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
        rhs = rhs + (px * py).scale(lv.z_series(alpha).inverse())
    return lhs == rhs and mid == rhs, lhs
