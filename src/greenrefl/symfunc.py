"""Symmetric functions of a colour structure, in power-sum coordinates.

A level has ``ecols`` colours, a root of unity zeta of that order in an
ambient cyclotomic field (so that nested levels can share a single field),
and a fixed homogeneous degree n.  A symmetric function of degree n is a
coordinate vector over the e-partitions of n; the power sums of colour
index i mix the colours through the root of unity,

    p_r^(i) = sum_j zeta^(i*j) p_r(x^(j)),

and a function is stored by its power-sum coordinates, so no polynomial
in x is ever formed.  The character table of the level (the power-sum
rows of the Schur functions, over the z_beta) is built by the
wreath-product character formula, the colour-wise Murnaghan-Nakayama
rule.  That formula multiplies roots of unity by
integers only, so the table lives in the group ring Z[C_E], an integer
vector over the exponents of zeta_E per entry, reduced into the power
basis of Q(zeta_E) once where it is read; it is built one column at a
time, on demand.  The tests hold these rows against explicit polynomials
multiplied out in max(n, 1) variables per colour
(``tests/polynomial_oracle.py``), which also supplies the monomial,
power-sum and one-row q bases that the tests need.  The tests also build
the Schur Gram matrix of a level, their reference for the
Hall-Littlewood data, by the class sum below.

Every t-deformed scalar product of two families given by their values on
the classes is one class sum, ``gram_numerators``: Omega', the fake
degrees (canonical by ``as_fractions``) and the coset table's unitarity.
The weights are divided out in Z[C_E][t] with no gcd (``ring_weight``)
over the degree product prod_i (t^(d_i) - 1), the lcm of the
det(t id - w) (Springer, Regular elements of finite reflection groups,
1974, Thm 3.4), as integers over z, and the numerators come back as
integers in coordinate lists (``TPoly.coords``), the form the block LDU
reads.  Every
value is scaled to Z[zeta][t] and packed into one Python int, a slot of B
bits per monomial t^d zeta^m, so the k^3 scalar products are big-integer
products; the packing, and why B from L1 norms is safe, are described
once, in ``exact_arith``.  The unpacking refuses a value that spills past
its last slot.
"""

from math import gcd, lcm, prod

from .combinatorics import enumerate_epartitions, ep_length
from .exact_arith import CycField, TPoly, TRat, kron_digits, kron_pack


class Level:
    """One color structure: ecols colors, a root of unity of that order
    living in an ambient field Q(zeta_E), and a fixed homogeneous degree n.

    The character table and the z-series are cached here.
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
        self.partitions = tuple(enumerate_epartitions(n, ecols))
        self.pindex = {alpha: i for i, alpha in enumerate(self.partitions)}
        self.size = len(self.partitions)
        self._char = None
        # the columns built so far, and what building them keeps: S_n
        # characters, the nonzero products per rho, partitions by colour sizes
        self._cols = {}
        self._sn_memo = {}
        self._young = {}
        self._by_sizes = {}
        for a, alpha in enumerate(self.partitions):
            self._by_sizes.setdefault(tuple(map(sum, alpha)), []).append(a)
        self._zser = {}
        self.one = TRat.from_cyc(field.one)

    def __repr__(self):
        return f"Level(E={self.E}, zeta^={self.h}, colors={self.ecols}, n={self.n})"

    def __hash__(self):
        return hash((self.E, self.h, self.ecols, self.n))

    def __eq__(self, other):
        return self is other

    def zeta_pow(self, k):
        return self.field.zeta((k * self.h) % self.E)

    # -- character table and centralizers --------------------------------------

    def char_table(self, columns=None):
        """Matrix chi[alpha][beta]: coefficient of s_alpha in p_beta, in the
        group ring Z[C_E]: a tuple of E integers, entry m the coefficient of
        zeta_E^m (``CycField.from_ring`` reduces it, once, where it is read).
        With ``columns``, a sequence of indices b into ``partitions``, only
        those columns, in that order: column b is the list of chi[alpha][b]
        over alpha.

        Computed by the wreath-product character formula (Macdonald, ch. I,
        appendix B): expanding p_r^(i) = sum_j zeta^(i*j) p_r(x^(j)) sends
        every part r of colour index i to one colour j with weight
        zeta^(i*j) = zeta_E^(h*i*j), so p_beta is a sum of products
        zeta_E^m prod_j p_(rho^(j))(x^(j)), and

            chi[alpha][beta] = sum_(rho,m) zeta_E^m prod_j chi^(alpha^(j))(rho^(j))

        with S_n characters from the Murnaghan-Nakayama rule, plain ints.
        Only rho with |rho^(j)| = |alpha^(j)| for every j contribute.

        The table is built one column at a time, on demand, and each column
        is kept, as are the S_n characters and the products per rho that it
        used; the whole table is assembled from the columns only when it is
        asked for, so a caller that reads a few columns (the coset table
        X(0)) never pays for the rest."""
        if columns is not None:
            return [self._column(b) for b in columns]
        if self._char is None:
            cols = [self._column(b) for b in range(self.size)]
            self._char = [list(row) for row in zip(*cols)]
        return self._char

    def _column(self, b):
        """Column b of ``char_table``, built once."""
        col = self._cols.get(b)
        if col is None:
            young, memo = self._young, self._sn_memo
            acc = [[0] * self.E for _ in range(self.size)]
            for (rho, m), count in self._colour_distributions(self.partitions[b]).items():
                if rho not in young:      # the nonzero products, per rho
                    young[rho] = [
                        (a, v) for a in self._by_sizes.get(tuple(map(sum, rho)), ())
                        if (v := prod(_sn_character(lam, mu, memo)
                                      for lam, mu in zip(self.partitions[a], rho)))
                    ]
                for a, v in young[rho]:
                    acc[a][m] += v * count
            col = self._cols[b] = [tuple(v) for v in acc]
        return col

    def _colour_distributions(self, beta):
        """p_beta as {(rho, m): count}, rho = (rho^(0), ..., rho^(ecols-1)):
        the products zeta_E^m prod_j p_(rho^(j))(x^(j)), equal ones grouped."""
        dists = {(((),) * self.ecols, 0): 1}
        for i, comp in enumerate(beta):
            for r in comp:
                nxt = {}
                for (rho, m), count in dists.items():
                    for j in range(self.ecols):
                        part = tuple(sorted(rho[j] + (r,), reverse=True))
                        key = (rho[:j] + (part,) + rho[j + 1 :], (m + self.h * i * j) % self.E)
                        nxt[key] = nxt.get(key, 0) + count
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


def as_fractions(nums, common):
    """The matrix nums / common as canonical TRat, for numerators nums in
    coordinate lists and their common denominator, a TPoly
    (``gram_numerators`` returns such a pair).  Over the constant 1 every
    numerator is already canonical, so the gcd is taken only where common
    is not 1."""
    field = common.field
    reduce = not (common.is_constant() and common.eval_zero().is_one())
    return [[TRat(TPoly.from_coords(field, x), common, reduce=reduce) for x in row]
            for row in nums]


def gram_numerators(left, right, weights, common, mirror=None):
    """(N, L) with sum_i left[a][i] conj(right[b][i]) weights[i] / common
    = N[a][b] / L.

    The rows hold CycNum values, weights[i] is (dw, W), W / dw with W the
    integer coordinates of each power of t (``ring_weight``), and the
    caller's common a TPoly, so no polynomial gcd is taken here.  L is
    common times an integer where the sum is not integral over it, N[a][b]
    in coordinate lists (``TPoly.coords``): Omega' goes on to the block LDU
    (``wreath.certified_ldu``) in that form, and a TPoly is built only
    where a matrix is printed (``as_fractions``).  With ``mirror``, a permutation s of the rows of
    left = right with conj(left[a]) = left[s[a]], N[a][b] = N[s[b]][s[a]]
    whatever the weights, and only one entry of each such pair is summed.

    Class i is scaled to integers: X[a] and Y[b] are the integer numerators
    of column i of left and conj(right) over their lcm denominators dx, dy,
    W is divided by its content c, and c / (dx dy dw), brought to the
    common denominator D, is folded into W.  Every X, Y and W is packed
    into one int by the codec of ``exact_arith``: a run of T slots of B
    bits per power zeta^m, a slot per power of t, T above the t-degree of
    every W.  A product X Y W has zeta-degree at most 3 (phi(e) - 1), so it
    fills at most 3 phi(e) - 2 runs and the k^3 products are integer
    products.  A sum read back in balanced runs is a vector over the powers
    of zeta, which ``CycField.fold`` reduces on the packed ints; a run past
    the last raises ArithmeticError.  A coefficient of the sum is at most
    S = sum_i max|X|_1 max|Y|_1 |W|_1 in absolute value, and a folded one
    at most S (1 + F), with F the sum of the L1 norms of the folded powers;
    B = bitlength(S (1 + F)) + 1 keeps both below 2^(B-1), so the balanced
    digits read them back exactly.  The digits are divided by D where every
    one of them is divisible; otherwise D stays in L."""
    field = common.field
    conj_right = [[c.conjugate() for c in row] for row in right]
    left_cols = [_integer_column(col) for col in zip(*left)]
    right_cols = [_integer_column(col) for col in zip(*conj_right)]
    factors, w_ints = [], []
    for (dx, _), (dy, _), (dw, ints) in zip(left_cols, right_cols, weights):
        content = gcd(*(x for num in ints for x in num)) or 1
        w_ints.append([[x // content for x in num] for num in ints])
        # the factor content / (dx dy dw) in lowest terms
        g = gcd(content, dx * dy * dw)
        factors.append((content // g, dx * dy * dw // g))
    den = lcm(*(d for _, d in factors))
    w_ints = [
        [[x * (c * (den // d)) for x in num] for num in w]
        for (c, d), w in zip(factors, w_ints)
    ]

    def l1(vec):
        return sum(abs(x) for x in vec)

    stride = 3 * field.degree - 2
    bound = 0
    for (_, xs), (_, ys), w in zip(left_cols, right_cols, w_ints):
        bound += max(map(l1, xs)) * max(map(l1, ys)) * sum(map(l1, w))
    bits = (bound * field.fold_growth(stride)).bit_length() + 1
    run = bits * max(len(w) for w in w_ints)

    packed_w = [kron_pack([kron_pack(coord, bits) for coord in zip(*w)], run) for w in w_ints]
    packed_y = list(zip(*([kron_pack(y, run) for y in ys] for _, ys in right_cols)))
    nums = [[None] * len(packed_y) for _ in range(len(left))]
    for a, xs in enumerate(zip(*(xs for _, xs in left_cols))):
        xw_row = [kron_pack(x, run) * pw for x, pw in zip(xs, packed_w)]
        for b, ys in enumerate(packed_y):
            if nums[a][b] is not None:
                continue
            value = 0
            for xw, y in zip(xw_row, ys):
                if xw and y:
                    value += xw * y
            slots = kron_digits(value, run)
            if len(slots) > stride:
                raise ArithmeticError("packed class sum overflows its slots")
            nums[a][b] = [kron_digits(v, bits) for v in field.fold(slots)]
            if mirror is not None:
                nums[mirror[b]][mirror[a]] = nums[a][b]
    if den > 1:
        if all(v % den == 0 for row in nums for x in row for c in x for v in c):
            nums = [[[[v // den for v in c] for c in x] for x in row] for row in nums]
        else:
            common = common.scale(field.integer(den))
    return nums, common


def ring_weight(level, ring, beta):
    """ring / det(t id - w_beta), ring over Z[C_E] (ascending in t, each
    coefficient E ints), as the coordinates of each power of t folded into
    the field of ``level`` (``CycField.fold``), or None where a remainder is
    not zero: long division by each binomial t^part - zeta^k of
    ``Level.det_poly``, a root of unity a rotation, with no gcd.  The weight
    routine of every class sum; the caller keeps its integer denominator."""
    field, E = level.field, level.E
    for colour, comp in enumerate(beta):
        k = colour * level.h % E
        for part in comp:
            ring = ring[:]
            for j in range(len(ring) - 1, part - 1, -1):
                ring[j - part] = [a + b for a, b in zip(ring[j - part], _rotate(ring[j], k))]
            if any(any(field.fold(c)) for c in ring[:part]):
                return None
            ring = ring[part:]
    return [field.fold(c) for c in ring]


def _rotate(vec, k):
    """zeta^k times the group-ring element vec of Z[C_e] (e = len(vec)):
    entry x moves to x + k mod e."""
    return vec[-k:] + vec[:-k] if k else vec


def _integer_column(col):
    """(d, X): the CycNum values of col are X[a] / d over their lcm
    denominator d, with integer coordinate vectors X[a]."""
    d = lcm(*(c.den for c in col))
    return d, [[x * (d // c.den) for x in c.num] for c in col]


def _sn_character(lam, mu, memo):
    """chi^lam(mu) of S_n by the Murnaghan-Nakayama rule on beta-numbers:
    removing an r-border strip moves one bead r places down the abacus,
    with sign (-1)^(beads jumped over).  ``mu`` is weakly decreasing;
    ``memo`` caches values; a level keeps one for all its columns."""
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


def level_for(e, n):
    """Standalone level for G(e,1,n) with zeta = zeta_e."""
    return Level(e, 1, e, n)

