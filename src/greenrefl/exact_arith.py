"""Exact arithmetic over cyclotomic fields Q(zeta_e) and over rational
functions in one parameter t with cyclotomic coefficients.

Everything downstream (symmetric functions, character tables, Green
functions) is built on the two scalar types defined here:

* ``CycNum``   -- an element of Q(zeta_e), stored in the power basis
                  1, zeta, ..., zeta^(phi(e)-1) reduced modulo the e-th
                  cyclotomic polynomial.  Canonical: equal field elements
                  have identical coefficient tuples.
* ``TPoly``    -- a polynomial in t with CycNum coefficients.
* ``TRat``     -- a quotient of two TPoly, kept gcd-reduced with a monic
                  denominator, so equality is structural.

One more scalar type serves the one block LDU elimination
(``wreath.certified_ldu``), of the Hall-Littlewood data and of the Green
functions alike:

* ``TSeries``  -- a truncated power series in Z[t]/(t^M), packed into one
                  integer by t -> 2^B (``SeriesRing``).  Its values are
                  read back into coordinate lists and must be checked
                  independently.

Every exact kernel that multiplies polynomials in t, the block LDU
elimination (``SeriesRing``), the class sums (``symfunc.gram_numerators``)
and the triple products (``linalg.PackedProduct``), runs on integers
packed at t = 2^B (Kronecker substitution; Harvey, J. Symb. Comp. 44,
2009), through one codec:

* ``kron_pack``     -- integer coefficients evaluated at t = 2^B (Horner);
* ``kron_digits``   -- the balanced base-2^B digits of an int, each in
                       [-2^(B-1), 2^(B-1)): the coefficients read back;
* ``convolve_into`` -- the product of two coordinate vectors over the
                       powers of zeta, left unreduced;
* ``CycField.fold`` -- such a vector reduced into the power basis by the
                       integer power table of the field.

Between these kernels a value in Z[zeta][t] travels as its coordinate
lists (``TPoly.coords``): phi(e) lists of ints, list m the coefficients of
zeta^m t^0, zeta^m t^1, ..., so that the integer data of a class sum reach
the elimination and the certificate with no CycNum built, and a TPoly is
made (``TPoly.from_coords``, with no gcd) only where a matrix is printed.
A value in Z[zeta][t] is packed as one int per coordinate of zeta^m, or
with zeta^m as a slot of its own where zeta stays unreduced through a
product; products run on the packed ints and are folded at the end.  The
digits read back exactly when every coefficient of the result lies below
2^(B-1) in absolute value, so B comes from L1 norms: no coefficient of a
sum of products exceeds the sum of the products of the L1 norms of the
integer coefficient vectors, and B - 1 bits hold that bound.  Only
integers are packed; a fractional coefficient is refused by name.

All values are immutable.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd


# ---------------------------------------------------------------------------
# integer polynomial helpers (used only to build cyclotomic polynomials)

def _int_poly_div(num, den):
    """Exact division of integer polynomial lists (ascending coeffs)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact integer polynomial division")
        q = c // den[-1]
        out[k] = q
        for i, d in enumerate(den):
            num[k + i] -= q * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("non-exact integer polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e):
    """Coefficients (ascending) of the e-th cyclotomic polynomial."""
    if e <= 0:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (e - 1) + [1]          # x^e - 1
    for d in range(1, e):
        if e % d == 0:
            poly = _int_poly_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


class CycField:
    """The cyclotomic field Q(zeta_e); interned so fields compare by identity."""

    _cache = {}

    def __new__(cls, e):
        field = cls._cache.get(e)
        if field is None:
            if e <= 0:
                raise ValueError("order must be a positive integer")
            field = object.__new__(cls)
            field._init(e)
            cls._cache[e] = field
        return field

    def _init(self, e):
        self.e = e
        poly = cyclotomic_polynomial(e)
        self.degree = len(poly) - 1
        d = self.degree
        # integer power table: zeta^k in the power basis (cyclotomic
        # polynomials are monic over Z, so the reduction is integral)
        top = [-c for c in poly[:d]]             # x^d = -(c_0 + ... + c_{d-1}x^{d-1})
        powers = []
        cur = [0] * d
        cur[0] = 1
        for _ in range(max(e, 2 * d)):
            powers.append(tuple(cur))
            lead = cur[d - 1] if d > 0 else 0
            nxt = [0] + cur[: d - 1]
            if lead:
                nxt = [a + lead * b for a, b in zip(nxt, top)]
            cur = nxt
        self._powers = powers
        self._ints = {}
        self.zero = self.integer(0)
        self.one = CycNum(self, powers[0], 1)

    def __repr__(self):
        return f"CycField({self.e})"

    def from_rational(self, value):
        if isinstance(value, int):
            num, den = value, 1
        else:
            value = Fraction(value)
            num, den = value.numerator, value.denominator
        return CycNum(self, (num,) + (0,) * (self.degree - 1), den)

    def integer(self, c):
        """The rational integer c as a field element; one shared CycNum
        per value below 2^12 in absolute value, so that the coefficients of
        a matrix over Z[t] (``TPoly.from_coords``) need no ``make``."""
        x = self._ints.get(c)
        if x is None:
            x = CycNum(self, (c,) + (0,) * (self.degree - 1), 1)
            if -4096 < c < 4096:
                self._ints[c] = x
        return x

    def zeta(self, k=1):
        """zeta_e^k as a field element."""
        return CycNum(self, self._powers[k % self.e], 1)

    def fold(self, vec):
        """The power-basis coordinates of sum_m vec[m] zeta^m, not
        normalised, for an integer vector vec: an element of the group ring
        Z[C_e], or an unreduced product of coordinate vectors."""
        d, e, powers = self.degree, self.e, self._powers
        out = list(vec[:d]) + [0] * (d - min(d, len(vec)))
        for m in range(d, len(vec)):
            c = vec[m]
            if c:
                out = [x + c * y for x, y in zip(out, powers[m % e])]
        return out

    def fold_growth(self, length):
        """1 plus the L1 norms of the powers that ``fold`` reduces in a
        vector of the given length: no folded coordinate exceeds this times
        the largest entry of the vector in absolute value."""
        d, e = self.degree, self.e
        return 1 + sum(sum(map(abs, self._powers[m % e])) for m in range(d, length))

    def from_ring(self, vec, den=1):
        """sum_m vec[m] zeta^m / den as a field element (``fold``)."""
        return self.make(self.fold(vec), den)

    def make(self, nums, den):
        """Normalized element from integer numerators and a denominator."""
        if den < 0:
            nums = [-x for x in nums]
            den = -den
        g = den
        for x in nums:
            if x:
                g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            nums = [x // g for x in nums]
            den //= g
        return CycNum(self, tuple(nums), den)


class CycNum:
    """An element of Q(zeta_e): integer coordinates in the power basis over
    a single positive denominator, in lowest terms."""

    __slots__ = ("field", "num", "den", "_hash")

    def __init__(self, field, num, den=1):
        # trusted: num integers, den positive, gcd(num..., den) = 1
        self.field = field
        self.num = num
        self.den = den
        self._hash = None

    @property
    def coeffs(self):
        """Power-basis coordinates as Fractions (canonical)."""
        return tuple(Fraction(n, self.den) for n in self.num)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(self.num)

    def is_one(self):
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self):
        return not any(self.num[1:])

    def to_fraction(self):
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.field is not self.field:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            nums = [a + b for a, b in zip(self.num, other.num)]
            if d1 == 1:
                return CycNum(self.field, tuple(nums), 1)
            return self.field.make(nums, d1)
        g = gcd(d1, d2)
        m1 = d2 // g
        m2 = d1 // g
        nums = [a * m1 + b * m2 for a, b in zip(self.num, other.num)]
        return self.field.make(nums, d1 * m1)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d1, d2 = self.den, other.den
        if d1 == d2:
            nums = [a - b for a, b in zip(self.num, other.num)]
            if d1 == 1:
                return CycNum(self.field, tuple(nums), 1)
            return self.field.make(nums, d1)
        g = gcd(d1, d2)
        m1 = d2 // g
        m2 = d1 // g
        nums = [a * m1 - b * m2 for a, b in zip(self.num, other.num)]
        return self.field.make(nums, d1 * m1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.num, other.num
        d = self.field.degree
        if d == 1:
            n = a[0] * b[0]
            den = self.den * other.den
            if den == 1:
                return CycNum(self.field, (n,), 1)
            return self.field.make([n], den)
        if not any(a[1:]):
            c = a[0]
            if not c:
                return self.field.zero
            return self.field.make([c * x for x in b], self.den * other.den)
        if not any(b[1:]):
            c = b[0]
            if not c:
                return self.field.zero
            return self.field.make([c * x for x in a], self.den * other.den)
        conv = [0] * (2 * d - 1)
        convolve_into(conv, a, b)
        return self.field.from_ring(conv, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse: the product of the other Galois conjugates
        sigma_k(x), 1 < k < e prime to e, over the norm N(x), which is
        x times that product and rational."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.is_rational():
            n = self.num[0]
            sign = 1 if n > 0 else -1
            return CycNum(
                self.field,
                (sign * self.den,) + (0,) * (self.field.degree - 1),
                abs(n),
            )
        e = self.field.e
        others = self.field.one
        for k in range(2, e):
            if gcd(k, e) == 1:
                others = others * self.galois(k)
        return others * (1 / (self * others).to_fraction())

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def galois(self, k):
        """The automorphism sigma_k: zeta -> zeta^k, for k prime to e."""
        e = self.field.e
        if gcd(k, e) != 1:
            raise ValueError(f"zeta -> zeta^{k} is not an automorphism of Q(zeta_{e})")
        vec = [0] * e
        for i, c in enumerate(self.num):
            vec[i * k % e] = c
        return CycNum(self.field, tuple(self.field.fold(vec)), self.den)

    def conjugate(self):
        """The automorphism zeta -> zeta^(-1) (complex conjugation)."""
        if self.field.degree == 1 or not any(self.num[1:]):
            return self
        return self.galois(-1)

    # -- embedding into a larger cyclotomic field ---------------------------

    def embed(self, e2):
        """Image under Q(zeta_e) -> Q(zeta_e2), zeta_e -> zeta_e2^(e2/e)."""
        if e2 % self.field.e != 0:
            raise ValueError("no embedding: order does not divide target order")
        step = e2 // self.field.e
        vec = [0] * e2
        for i, c in enumerate(self.num):
            vec[i * step] = c
        return CycField(e2).from_ring(vec, self.den)

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return (
            self.field is other.field
            and self.den == other.den
            and self.num == other.num
        )

    def key(self):
        """A plain tuple that is equal exactly when the values are (fields
        are interned): the hash key, and a cheaper dict key than self."""
        return (self.field.e, self.num, self.den)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    # -- presentation --------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = "z" if i == 1 else f"z^{i}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"Cyc({self.field.e}: {self})"

    def coordinate_texts(self):
        """str(Fraction(n, den)) of every coordinate, without the Fraction:
        "n", or "n/d" in lowest terms.  The one rule for JSON coordinates."""
        den = self.den
        out = []
        for n in self.num:
            g = gcd(n, den)
            out.append(f"{n // g}/{den // g}" if den > g else str(n // g))
        return out

    def to_json(self):
        return {"e": self.field.e, "coeffs": self.coordinate_texts()}

    def json_text(self):
        """to_json() as json.dumps(..., sort_keys=True, separators=(",", ":"))
        writes it, without the dict."""
        return '{"coeffs":["%s"],"e":%d}' % ('","'.join(self.coordinate_texts()), self.field.e)

    @staticmethod
    def from_json(data):
        field = CycField(data["e"])
        coeffs = [Fraction(c) for c in data["coeffs"]]
        if len(coeffs) != field.degree:
            raise ValueError("wrong coefficient count")
        return _cyc_from_fractions(field, coeffs)


def _cyc_from_fractions(field, fracs):
    den = 1
    for f in fracs:
        den = den * f.denominator // gcd(den, f.denominator)
    nums = [int(f * den) for f in fracs]
    return field.make(nums, den)


def cyc_make(e, raw):
    """Build an element of Q(zeta_e) from (exponent, rational) pairs.

    Exponents are reduced mod e; the result is in canonical reduced form.
    """
    field = CycField(e)
    out = field.zero
    for exponent, value in raw:
        out = out + field.zeta(exponent % e) * Fraction(value)
    return out


# ---------------------------------------------------------------------------
# polynomials in t over a cyclotomic field


class TPoly:
    """Polynomial in t with CycNum coefficients, trailing zeros trimmed."""

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field, coeffs, trusted=False):
        self.field = field
        if trusted:
            self.coeffs = coeffs
        else:
            coeffs = list(coeffs)
            while coeffs and coeffs[-1].is_zero():
                coeffs.pop()
            self.coeffs = tuple(coeffs)
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value):
        if not isinstance(value, CycNum):
            raise TypeError("constant expects a CycNum")
        if value.is_zero():
            return TPoly(value.field, (), trusted=True)
        return TPoly(value.field, (value,), trusted=True)

    @staticmethod
    def t_power(field, k, scale=None):
        coeff = field.one if scale is None else scale
        if coeff.is_zero():
            return TPoly(field, (), trusted=True)
        return TPoly(field, tuple([field.zero] * k + [coeff]), trusted=True)

    @staticmethod
    def from_coords(field, coords):
        """The polynomial of coordinate lists (``coords``), with no gcd:
        every coefficient is integral, a rational one the field's shared
        CycNum (``CycField.integer``)."""
        if not any(coords[1:]):
            return TPoly(field, tuple(map(field.integer, coords[0])), trusted=True)
        return TPoly(field, tuple(
            CycNum(field, ds, 1) for ds in zip_longest(*coords, fillvalue=0)), trusted=True)

    def coords(self, field=None):
        """The coordinate lists of this polynomial over Z[zeta], the form
        in which the exact kernels exchange matrices: phi(e) lists of ints,
        list m the coefficients of zeta^m t^0, zeta^m t^1, ... with no
        trailing zeros.  ValueError names a coefficient that is not
        integral in ``field`` (by default its own), or lies in another field."""
        field = self.field if field is None else field
        for c in self.coeffs:
            if c.den != 1 or c.field is not field:
                raise ValueError(f"coefficient {c} of {self} is not integral in Q(zeta_{field.e})")
        if not self.coeffs:
            return [[] for _ in range(field.degree)]
        return [trim(list(col)) for col in zip(*(c.num for c in self.coeffs))]

    # -- basics --------------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def eval_zero(self):
        return self.coeffs[0] if self.coeffs else self.field.zero

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return TPoly(self.field, out)

    def __neg__(self):
        return TPoly(self.field, tuple(-c for c in self.coeffs), trusted=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return TPoly(self.field, (), trusted=True)
        zero = self.field.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai.is_zero():
                for j, bj in enumerate(b):
                    if not bj.is_zero():
                        out[i + j] = out[i + j] + ai * bj
        return TPoly(self.field, out)

    def scale(self, c):
        if c.is_zero():
            return TPoly(self.field, (), trusted=True)
        return TPoly(self.field, tuple(a * c for a in self.coeffs), trusted=True)

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q_len = len(rem) - len(other.coeffs) + 1
        if q_len <= 0:
            return TPoly(self.field, (), trusted=True), self
        quot = [self.field.zero] * q_len
        inv_lead = other.leading().inverse()
        for k in range(q_len - 1, -1, -1):
            c = rem[k + other.degree()]
            if c.is_zero():
                continue
            q = c * inv_lead
            quot[k] = q
            for i, oc in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - q * oc
        return TPoly(self.field, quot), TPoly(self.field, rem[: other.degree()])

    def monic(self):
        if self.is_zero():
            return self
        lead = self.leading()
        if lead.is_one():
            return self
        inv = lead.inverse()
        return self.scale(inv)

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
            b = b.monic() if not b.is_zero() else b
        return a.monic()

    def reversed_coeffs(self):
        """t^deg * p(1/t)."""
        return TPoly(self.field, tuple(reversed(self.coeffs)))

    def conjugate(self):
        return TPoly(self.field, tuple(c.conjugate() for c in self.coeffs), trusted=True)

    # -- comparison / presentation -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TPoly):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field.e, self.coeffs))
        return self._hash

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree(), -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            mon = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            cs = str(c)
            needs_parens = ("+" in cs[1:]) or ("-" in cs[1:])
            if needs_parens:
                cs = f"({cs})"
            if mon:
                if cs == "1":
                    parts.append(mon)
                elif cs == "-1":
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{cs}*{mon}")
            else:
                parts.append(cs)
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out

    def __repr__(self):
        return f"TPoly({self})"


class TRat:
    """Rational function in t: gcd-reduced, monic denominator, canonical."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, reduce=True):
        field = num.field
        if den is None:
            den = TPoly(field, (field.one,), trusted=True)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if reduce:
            if num.is_zero():
                den = TPoly(field, (field.one,), trusted=True)
            else:
                g = num.gcd(den)
                if g.degree() > 0:
                    num = num.divmod(g)[0]
                    den = den.divmod(g)[0]
                lead = den.leading()
                if not lead.is_one():
                    inv = lead.inverse()
                    num = num.scale(inv)
                    den = den.scale(inv)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_cyc(value):
        return TRat(TPoly.constant(value), reduce=False)

    @staticmethod
    def rational(value, e=1):
        return TRat.from_cyc(CycField(e).from_rational(value))

    @staticmethod
    def t(field, k=1):
        return TRat(TPoly.t_power(field, k), reduce=False)

    @property
    def field(self):
        return self.num.field

    # -- predicates ----------------------------------------------------------

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.den.degree() == 0 and self.num.degree() == 0 and self.num.coeffs[0].is_one()

    def is_polynomial(self):
        return self.den.degree() == 0

    def is_constant(self):
        return self.is_polynomial() and self.num.is_constant()

    def to_cyc(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.num.eval_zero()

    # -- arithmetic ----------------------------------------------------------
    #
    # add/mul keep the reduced invariant with the classical gcd tricks:
    # fractions in lowest terms stay in lowest terms after cross-cancelled
    # products, and sums only need a gcd against gcd(den1, den2).

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        b, d = self.den, other.den
        if b.degree() == 0 and d.degree() == 0:
            return TRat(self.num + other.num, b, reduce=False)
        if b == d:
            return TRat(self.num + other.num, b)
        if b.degree() == 0:
            return TRat(self.num * d + other.num, d, reduce=False)
        if d.degree() == 0:
            return TRat(self.num + other.num * b, b, reduce=False)
        g = b.gcd(d)
        if g.degree() == 0:
            return TRat(self.num * d + other.num * b, b * d, reduce=False)
        b1 = b.divmod(g)[0]
        d1 = d.divmod(g)[0]
        num = self.num * d1 + other.num * b1
        g2 = num.gcd(g)
        if g2.degree() > 0:
            num = num.divmod(g2)[0]
            den = b1 * d1 * g.divmod(g2)[0]
        else:
            den = b1 * d1 * g
        out = TRat(num, den, reduce=False)
        if not den.leading().is_one():
            inv = den.leading().inverse()
            out = TRat(num.scale(inv), den.scale(inv), reduce=False)
        return out

    def __neg__(self):
        return TRat(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return TRat(TPoly(self.field, (), trusted=True), reduce=False)
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b.degree() == 0 and d.degree() == 0:
            return TRat(a * c, b * d, reduce=False).monic_den()
        if b.degree() > 0 and c.degree() > 0:
            g = c.gcd(b)
            if g.degree() > 0:
                c = c.divmod(g)[0]
                b = b.divmod(g)[0]
        if d.degree() > 0 and a.degree() > 0:
            g = a.gcd(d)
            if g.degree() > 0:
                a = a.divmod(g)[0]
                d = d.divmod(g)[0]
        return TRat(a * c, b * d, reduce=False).monic_den()

    def monic_den(self):
        lead = self.den.leading()
        if lead.is_one():
            return self
        inv = lead.inverse()
        return TRat(self.num.scale(inv), self.den.scale(inv), reduce=False)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return self * TRat(other.den, other.num)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return TRat(self.den, self.num)

    def scale_cyc(self, c):
        """Multiply by a constant; stays reduced, denominator stays monic."""
        if c.is_zero():
            return TRat(TPoly(self.field, (), trusted=True), reduce=False)
        return TRat(self.num.scale(c), self.den, reduce=False)

    def conjugate(self):
        """Conjugate coefficients (zeta -> zeta^(-1)); t is fixed."""
        if self.field.degree <= 1:
            return self
        return TRat(self.num.conjugate(), self.den.conjugate(), reduce=False)

    def eval_zero(self):
        """Value at t = 0 (denominator must not vanish there)."""
        d0 = self.den.eval_zero()
        if d0.is_zero():
            raise ZeroDivisionError("pole at t = 0")
        return self.num.eval_zero() / d0

    # -- comparison / presentation -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TRat):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        ns, ds = str(self.num), str(self.den)
        if "+" in ns[1:] or "-" in ns[1:]:
            ns = f"({ns})"
        if "+" in ds[1:] or "-" in ds[1:]:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"TRat({self})"

    def to_json(self):
        return {
            "num": [c.to_json() for c in self.num.coeffs],
            "den": [c.to_json() for c in self.den.coeffs],
        }

    @staticmethod
    def coeffs_json_text(num, den, coeff_text=CycNum.json_text):
        """to_json() of the TRat with these numerator and denominator
        coefficients as json.dumps(..., sort_keys=True, separators=(",", ":"))
        writes it, each coefficient written by coeff_text; no TRat is built."""
        return '{"den":[%s],"num":[%s]}' % (
            ",".join(map(coeff_text, den)), ",".join(map(coeff_text, num)))

    @staticmethod
    def from_json(data):
        nums = [CycNum.from_json(c) for c in data["num"]]
        dens = [CycNum.from_json(c) for c in data["den"]]
        if not dens:
            raise ZeroDivisionError("zero denominator")
        field = dens[0].field
        return TRat(TPoly(field, nums), TPoly(field, dens))



# ---------------------------------------------------------------------------
# the Kronecker codec (see the module docstring) and truncated power series
# over Z, packed into integers


def kron_pack(coeffs, bits):
    """sum_k coeffs[k] 2^(bits k) for integers coeffs, by Horner."""
    v = 0
    for c in reversed(coeffs):
        v = (v << bits) + c
    return v


def kron_digits(v, bits):
    """The balanced base-2^bits digits of v, lowest first, each in
    [-2^(bits-1), 2^(bits-1)), up to the last nonzero one: the coefficients
    c with kron_pack(c, bits) = v when every one lies in that range."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while v:
        c = v & mask
        v >>= bits
        if c >= half:
            c -= mask + 1
            v += 1
        out.append(c)
    return out


def trim(coeffs):
    """coeffs, a list of ints, with its trailing zeros dropped in place."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def convolve_into(acc, a, b):
    """acc += a * b for coordinate vectors over the powers of zeta,
    unreduced: acc[m + n] += a[m] b[n]."""
    for m, x in enumerate(a):
        if x:
            for n, y in enumerate(b):
                if y:
                    acc[m + n] += x * y


class SeriesRing:
    """Z[t]/(t^M) carried into Z/2^(B M) by t -> 2^B (Kronecker
    substitution).  An element is one Python int modulo 2^(B M), so +, -
    and * are integer operations and a mask, and the units are the odd
    ints.  The OmegaPrime that the Green functions factor where they take
    this route lies in Z[t], and on G(e',1,n') its factors are also the
    Hall-Littlewood data (``wreath._compute_hl``).  It comes in coordinate
    lists (``TPoly.coords``) and the factors go back out in them; ``encode``
    refuses a coefficient that carries zeta.

    The map is a ring homomorphism, so an elimination whose pivots are units
    runs in the image, and a polynomial of degree below M whose coefficients
    lie below 2^(B-1) in absolute value is read back exactly by ``decode``,
    in balanced base-2^B digits.  Nothing here can tell whether a result
    meets that bound: a result must be checked."""

    def __init__(self, field, prec, bits):
        self.field = field
        self.bits = bits
        self.modulus = 1 << (bits * prec)
        self.mask = self.modulus - 1

    def encode(self, x):
        """The image of the coordinate lists x of a polynomial over Z[t].
        Raises ValueError naming the first coefficient that is not a
        rational integer."""
        if any(x[1:]):
            poly = TPoly.from_coords(self.field, x)
            c = next(c for c in poly.coeffs if any(c.num[1:]))
            raise ValueError(f"coefficient {c} of {poly} is not a rational integer")
        return TSeries(self, kron_pack(x[0], self.bits) & self.mask)

    def decode(self, x):
        """The coordinate lists of the polynomial of degree < M with integer
        coefficients below 2^(B-1) in absolute value whose image is x."""
        v = x.c
        if v >= self.modulus >> 1:
            v -= self.modulus
        return [kron_digits(v, self.bits)] + [[] for _ in range(self.field.degree - 1)]


class TSeries:
    """An element of a ``SeriesRing``: ``c`` is one int modulo 2^(B M)."""

    __slots__ = ("ring", "c")

    def __init__(self, ring, c):
        self.ring = ring
        self.c = c

    def is_zero(self):
        return not self.c

    def __add__(self, other):
        return TSeries(self.ring, (self.c + other.c) & self.ring.mask)

    def __sub__(self, other):
        return TSeries(self.ring, (self.c - other.c) & self.ring.mask)

    def __mul__(self, other):
        return TSeries(self.ring, (self.c * other.c) & self.ring.mask)

    def inverse(self):
        """The inverse modulo 2^(B M); ArithmeticError for an even int."""
        if not self.c & 1:
            raise ArithmeticError("not a unit of the truncated power series ring")
        return TSeries(self.ring, pow(self.c, -1, self.ring.modulus))

    def __truediv__(self, other):
        return self * other.inverse()
