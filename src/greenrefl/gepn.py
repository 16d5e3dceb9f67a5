"""The twisted-coset layer for W = G(e,p,n).

Symmetric functions attached to the coset sigma^q W are p-tuples: the j-th
component lives in the contracted variables

    X_i^(k) = x_i^(k) x_i^(k+jd) ... x_i^(k+(h-1)jd),   0 <= k < j1*d,

(h the order of j mod p, j1 = gcd(j, p)), carries the root of unity
zeta^h and the deformation parameter t^h.  The paper defines the Kostka
matrices as the transition matrix between the tuple Schur and tuple
Hall-Littlewood functions.  No tuple function is built here: every
quantity is read off the sub-level data through the orbit terms of a
character, so all computations reduce to the wreath-product machinery plus
bookkeeping.  The tuple functions stay in the tests
(``tests/tuple_oracle.py``) as the reference of the Kostka assembly.

The coset character table X(0), the transition matrix from tuple power
sums to tuple Schur functions, is read off the sub-levels G(e',1,n'):
X(0)[xi][z] = <p_xi, s_z> is a sum of sub-level character-table entries
with roots of unity, summed in the group ring Z[C_e] of those tables (a
root of unity is a rotation) over only the table columns that are class
parameters of the coset, and reduced into Q(zeta_e) once per distinct sum.
Only one unsplit row of each orbit of the centre of W and, where p | 2q,
of inversion is summed: the central element zeta^k I acts on a character
as a scalar, so the other rows of the orbit are the summed one with each
column rotated, and conjugated for an inverse class
(``CosetAlgebra._row_sources``); only the summed rows' columns are built.
OmegaPrime and the fake degrees are class sums over the columns of X(0),
computed by ``symfunc.gram_numerators``, the kernel shared with the Schur
Gram matrix of a level, over one set of integer weights per coset,
D / (z_xi det(t id - w_xi)) divided in Z[C_e][t] with no gcd
(``CosetAlgebra._class_weights``): D is the degree product, the lcm of the
det(t id - w) by Springer's theorem, so on an untwisted coset every weight
is a polynomial.  OmegaPrime is t^(N*) times its class sum.  For q = 0 the
class sum takes one entry of each pair that complex conjugation of the
characters mirrors.  The numerators stay integers, in coordinate lists
(``TPoly.coords``), from the class sum through the elimination and its
certificate; TPoly and TRat are built only for the matrices a command
prints.  The Green-function suite packages

    Ktilde(+/-) = K(+/-)(t^(-1)) T,      T = diag(t^(a(z))),
    OmegaPrime  = t^(N*) D sum_xi X(0)-row outer products / (z_xi det(t id - w_xi)),
    LambdaTilde = the similarity-class diagonal blocks of
                  Ktilde-^(-1) OmegaPrime tr(Ktilde+)^(-1),

the unique block LDU OmegaPrime = Ktilde- LambdaTilde tr(Ktilde+) along
the similarity classes (Shoji, J. Algebra 245, 2001).  ``green`` reads
all three off one block LDU (l, d, u) of OmegaPrime in u = 1/t, A(u) =
u^m N(1/u) for OmegaPrime = N / L (``CosetAlgebra._ldu_factors``), and
``kostka`` prints l = K-(u) and tr(u) = K+(u) with u renamed t.  Where
OmegaPrime is over Z[t], the factors come from the elimination in
truncated power series over Z that also gives the Hall-Littlewood data
(``wreath.certified_ldu``, on ``exact_arith.SeriesRing``).

The Kostka assembly is the paper's theorem: the Kostka matrices come from
the block assembly out of sub-level Kostka matrices (``hl_data``).  It
checks the LDU route in ``verify``, and is the fallback of ``green`` and
``kostka`` where OmegaPrime carries zeta or the elimination fails its
certificate.  It is then a second source of the same three factors
(``CosetAlgebra.assembly_ldu``), with no gcd or linear solve: l
and u are K- and tr(K+) in u, and d is read off one packed integer
product of the inverse Kostka matrices (unit lower-triangular, by forward
substitution) with A; its factors, which may carry zeta, are converted to
coordinate lists there.  Whichever route gives them, one certificate
l diag(d) u = A, multiplied out on packed integers
(``wreath.ldu_certified`` on ``linalg.PackedProduct``), gives the residual,
and one coefficient reversal per entry (``CosetAlgebra._read_back``)
gives the printed matrices.  Only those are put in canonical TRat form.

The coset phase of a character lives in ``CosetAlgebra._orbit_terms``:
X(0) and the Kostka assembly both read it, and
``_power_terms``, the tuple power sum of a class, is its counterpart on
the class side.
"""

from collections import Counter, namedtuple
from fractions import Fraction

from . import linalg
from .combinatorics import (
    alpha_divide,
    alpha_truncate,
    class_multiplicity,
    delta,
    enumerate_class_params,
    ep_length,
    orbit_data,
    similarity_order,
)
from .exact_arith import CycField, TPoly, TRat, trim
from . import wreath
from .symfunc import Level, _rotate, as_fractions, gram_numerators, ring_weight
from .wreath import LabeledMatrix

_ALGEBRAS = {}


def coset_algebra(params, r=2):
    key = (params, r)
    if key not in _ALGEBRAS:
        _ALGEBRAS[key] = CosetAlgebra(params, r)
    return _ALGEBRAS[key]


def clear_caches():
    """Drop every coset algebra, level and in-memory Hall-Littlewood family.

    The three caches are emptied together: a level compares by identity, so
    HL data kept for a dropped level could never be found again, and a kept
    coset algebra would go on holding the dropped levels.  The HL disk cache
    is not touched.  ``CycField._cache`` stays, because fields also compare
    by identity and every live number holds its field; a second Q(zeta_e)
    would make numbers built before and after the call unequal.  The
    ``lru_cache``s of ``combinatorics`` and ``exact_arith`` stay too: they
    are pure functions of integers and their values are never wrong."""
    _ALGEBRAS.clear()
    Level._cache.clear()
    wreath._HL_CACHE.clear()


class CosetAlgebra:
    """All data attached to (G(e,p,n), coset q, symbol shift r)."""

    def __init__(self, params, r=2):
        self.params = params
        self.r = r
        e, p, n, q = params.e, params.p, params.n, params.q
        self.field = CycField(e)
        sim = similarity_order(params, r)
        self.char_classes = sim.classes
        self.class_a_values = sim.a_values
        self.chars = [z for cls in sim.classes for z in cls]
        self.a_of = {}
        for cls, a in zip(sim.classes, sim.a_values):
            for z in cls:
                self.a_of[z] = a
        # the block layout of every matrix indexed by the characters
        self.blocks = [len(cls) for cls in sim.classes]
        self.a_diag = [self.a_of[z] for z in self.chars]
        self.labels = [z.label() for z in self.chars]
        self.class_params = enumerate_class_params(params)
        self.class_index = {xi: i for i, xi in enumerate(self.class_params)}
        if len(self.chars) != len(self.class_params):
            raise ArithmeticError("character/class count mismatch")
        # sub-levels: j -> Level with zeta^h and n/h
        self.levels = {}
        self.h_of = {}
        for j in range(p):
            h = params.h_of(j)
            if n % h:
                continue
            ecols = params.j1_of(j) * params.d
            self.levels[j] = Level(e, h, ecols, n // h)
            self.h_of[j] = h
        self.zero = TRat(TPoly(self.field, ()), reduce=False)
        self.one = TRat.from_cyc(self.field.one)
        self._coset_table = None
        self._kostka = {}
        self._omega = None
        self._omega_nums = None
        self._weights = None
        self._sigma = None
        self._green = None
        self._assembly = None
        self._factors = None

    # -- roots of unity -------------------------------------------------------

    def zeta_pow(self, k):
        return self.field.zeta(k % self.params.e)

    def conjugation_permutation(self):
        """Index permutation induced by complex conjugation of the
        characters, located by matching conjugated table columns (the
        label arithmetic alone does not determine it: a stabilizer
        character can conjugate to itself).

        Only the untwisted coset is matched.  Complex conjugation maps
        sigma^q W to sigma^(-q) W, so for q != 0 the conjugate of a column
        is a column of the sigma^(-q) W table, whose extensions carry other
        phases even where that coset is sigma^q W again, and there is no
        permutation: None.  For q = 0 every column has its conjugate in the
        table; ArithmeticError if one does not.  Matched once: OmegaPrime
        (``omega_prime``) and the symmetric presentation of LambdaTilde
        read the same permutation."""
        if self.params.q:
            return None
        if self._sigma is None:
            k = len(self.chars)
            cols = [tuple(row[z] for row in self.coset_table()) for z in range(k)]
            index = {col: z for z, col in enumerate(cols)}
            perm = []
            for z, col in enumerate(cols):
                w = index.get(tuple(v.conjugate() for v in col))
                if w is None:
                    raise ArithmeticError(
                        f"the conjugate of column {self.chars[z].label()} is not in the table"
                    )
                perm.append(w)
            self._sigma = perm
        return self._sigma

    # -- orbit and power terms -----------------------------------------------

    def _orbit_terms(self, z):
        """The coset phase of the character z = (alpha, phi), in one place.

        One term (j, i, a, k) per sub-level j that is a multiple of the orbit
        size c and per orbit step i < c: a is the partition index of
        theta^i(alpha) truncated at j, and zeta^k = phi(tau^j) zeta^(q i d).
        Component j of a tuple function of z is the sum of zeta^k times the
        sub-level function of partition a over these terms; ``_x_matrix``
        and ``kostka_assembled`` read the terms without building it."""
        params = self.params
        orbit, c = orbit_data(z.alpha, params.p)
        return [
            (j, i, level.pindex[alpha_truncate(orbit[i], j, params)],
             (z.phi * j + params.q * i) * params.d)
            for j, level in self.levels.items() if j % c == 0 for i in range(c)
        ]

    def _power_terms(self, xi):
        """The class side: one (j, g, u, s) per sub-level j where beta
        divides, with g the partition index of beta[j] and
        c_j(xi) = s zeta^u, s = h^len and u = -(delta+b) j d."""
        params = self.params
        terms = []
        for j, level in self.levels.items():
            divided = alpha_divide(xi.beta, j, params)
            if divided is None:
                continue
            u = -(delta(xi.beta) + xi.b) * j * params.d
            terms.append((j, level.pindex[divided], u, self.h_of[j] ** ep_length(divided)))
        return terms

    # -- the coset character table ------------------------------------------------

    def _row_sources(self):
        """For each row of X(0), None where it is summed, else (i, k, conj):
        the row is that of class i moved by the central element zeta^k I of
        W and then, where conj, inverted.

        zeta^k I lies in W = G(e,p,n) exactly when p | k n, and times w it
        moves a part r of colour c to colour c + k r; inversion moves it to
        colour -c.  Both permute the classes of W, and the central elements
        those of sigma^q W; inversion maps sigma^q W onto sigma^(-q) W and is
        used where that is sigma^q W again, p | 2q.  An unsplit class
        (``class_multiplicity`` 1, so the only class param with its
        e-partition) is its e-partition alone, so its images are found by
        their e-partitions; the first unsplit class of each orbit, in class
        order, is summed, and split classes are always summed."""
        params = self.params
        count = Counter(xi.beta for xi in self.class_params)
        unsplit = {xi.beta: i for i, xi in enumerate(self.class_params) if count[xi.beta] == 1}
        moves = [(k, conj) for k in range(params.e) if k * params.n % params.p == 0
                 for conj in ((False, True) if 2 * params.q % params.p == 0 else (False,))]
        source = [None] * len(self.class_params)
        for beta, i in unsplit.items():
            if source[i] is not None:
                continue
            for k, conj in moves:
                image = unsplit[_central_image(beta, k, conj)]
                if image != i and source[image] is None:
                    source[image] = (i, k, conj)
        return source

    def _x_matrix(self):
        """X(0)[xi][z] = <p_xi, s_z>, read off the sub-level tables.

        The tuple Schur functions are orthonormal at t = 0 and
        <p_gamma, s_delta> = chi_j[delta][gamma] on the sub-level at j, so
        over the orbit terms (j, i, a, k) of z and the power terms
        (j, g, u, s) of xi at a common j

          X(0)[xi][z] = (1/p) sum s zeta^(u-k) chi_j[a][g].

        Summed in the group ring Z[C_e] of ``Level.char_table``: a term
        rotates chi_j[a][g] by u - k and scales it by s.  Only one row of
        each orbit of the centre of W and, where p | 2q, of inversion is
        summed (``_row_sources``).  By Schur's lemma zeta^k I acts on the
        character z = (alpha, phi), and on its extension to sigma^q W, as
        zeta^(k s(alpha)), s(alpha) = sum_c c |alpha^(c)| (Macdonald, ch. I,
        appendix B), so a moved row is the summed one with column z rotated
        by k s(alpha); the row of an inverse class is the conjugate one, an
        extended character being a character of a finite group.
        Only the columns g that the summed rows' power terms name are asked
        of each level (on G(6,2,3), 13 of the 98 columns at j = 0, for 13
        of 49 rows), and each distinct group-ring sum is reduced into
        Q(zeta_e) once, so equal entries share one CycNum.  Rows are class
        params, columns char params."""
        e, p = self.params.e, self.params.p
        source = self._row_sources()
        power_terms = [self._power_terms(xi) if src is None else ()
                       for xi, src in zip(self.class_params, source)]
        chi = {}
        for j, level in self.levels.items():
            cols = sorted({g for terms in power_terms for jj, g, _, _ in terms if jj == j})
            chi[j] = dict(zip(cols, level.char_table(cols)))
        schur_terms = [
            [(j, a, k) for j, _, a, k in self._orbit_terms(z)] for z in self.chars
        ]
        central = [sum(c * sum(comp) for c, comp in enumerate(z.alpha)) for z in self.chars]
        rings = []        # the rows in Z[C_e], before reduction
        reduced = {}
        table = []
        for terms_xi, src in zip(power_terms, source):
            if src is not None:
                i, k, conj = src
                ring = [_rotate(acc, k * s % e) for acc, s in zip(rings[i], central)]
                if conj:
                    ring = [acc[:1] + acc[:0:-1] for acc in ring]
            else:
                power = {j: (chi[j][g], u, s) for j, g, u, s in terms_xi}
                ring = []
                for terms in schur_terms:
                    acc = [0] * e
                    for j, a, k in terms:
                        if j in power:
                            col, u, s = power[j]
                            for x, c in enumerate(col[a]):
                                acc[(x + u - k) % e] += s * c
                    ring.append(acc)
            rings.append(ring)
            row = []
            for acc in ring:
                key = tuple(acc)
                value = reduced.get(key)
                if value is None:
                    value = reduced[key] = self.field.from_ring(acc, p)
                row.append(value)
            table.append(row)
        return table

    def coset_table(self):
        """X(0): rows class params, columns char params, values in Z[zeta]."""
        if self._coset_table is None:
            self._coset_table = self._x_matrix()
        return self._coset_table

    def z_integer(self, xi):
        """|Z_W(w_xi)| = (r_beta / p) z_beta."""
        level0 = self.levels[0]
        r_beta = class_multiplicity(xi.beta, self.params)
        z_full = level0.z_int(xi.beta)
        num = r_beta * z_full
        if num % self.params.p:
            raise ArithmeticError("centralizer order is not integral")
        return num // self.params.p

    def z_coset_series(self, xi):
        """z_(beta,b)(t) = |Z_W(w)| / prod (1 - zeta^k t^part)."""
        level0 = self.levels[0]
        zt = level0.z_series(xi.beta)
        frac = Fraction(class_multiplicity(xi.beta, self.params), self.params.p)
        return zt.scale_cyc(self.field.from_rational(frac))

    def orthogonality_holds(self):
        """(4.1.2): sum_xi X[xi,z] conj(X[xi,z']) / z_xi = delta."""
        table = self.coset_table()
        zs = [self.z_integer(xi) for xi in self.class_params]
        k = len(self.chars)
        for a in range(k):
            for b in range(k):
                acc = self.field.zero
                for i in range(len(self.class_params)):
                    acc = acc + table[i][a] * table[i][b].conjugate() * Fraction(
                        1, zs[i]
                    )
                want = self.field.one if a == b else self.field.zero
                if acc != want:
                    return False
        return True

    # -- Kostka matrices -------------------------------------------------------------

    def kostka_assembled(self, sign):
        """The block assembly from sub-level Kostka matrices: for z with
        orbit size c and z', summed over the orbit terms (j, 0, a, k) of z
        and (j, i', a', k') of z' at a common sub-level j,

          K[z,z'] = (c/p) sum zeta^(k - k') K_(level j)[a, a']

        with the sub-level matrix indexed by partition and taken at the
        parameter t^h."""
        if sign not in self._kostka:
            base = {}
            for j, level in self.levels.items():
                data = wreath.hl_data(level, self.r)
                kmat = data.kp if sign > 0 else data.km
                pos = [data.order.index(alpha) for alpha in level.partitions]
                h = self.h_of[j]
                base[j] = [
                    [kmat[x][y] if h == 1 or kmat[x][y].is_zero()
                     else kmat[x][y].subst_power(h) for y in pos]
                    for x in pos
                ]
            terms = [self._orbit_terms(z) for z in self.chars]
            size = len(self.chars)
            out = [[self.zero] * size for _ in range(size)]
            for zi, z in enumerate(self.chars):
                # z.alpha leads its orbit, so its own terms are the i = 0 ones
                lead = {j: (a, k) for j, i, a, k in terms[zi] if i == 0}
                c = orbit_data(z.alpha, self.params.p)[1]
                scale = self.field.from_rational(Fraction(c, self.params.p))
                for wi, w_terms in enumerate(terms):
                    acc = self.zero
                    for j, _, b, kw in w_terms:
                        if j not in lead:
                            continue
                        a, k = lead[j]
                        entry = base[j][a][b]
                        if not entry.is_zero():
                            acc = acc + entry.scale_cyc(self.zeta_pow(k - kw))
                    out[zi][wi] = acc.scale_cyc(scale)
            self._kostka[sign] = out
        return self._kostka[sign]

    # -- the Green suite ---------------------------------------------------------------

    def n_star(self):
        params = self.params
        return params.e * params.n * (params.n - 1) // 2 + params.n * (params.d - 1)

    def det_of_class(self, beta):
        """det_M(w_beta(b)) = (-1)^(n - length) zeta^(delta(beta))."""
        sign = (-1) ** (self.params.n - ep_length(beta))
        return self.field.zeta(delta(beta) % self.params.e) * sign

    def _class_weights(self):
        """(weights, common), computed once: weights[i] = (z_xi, W) with
        W / (z_xi common) = D / (z_xi det(t id - w_xi)) for the degree
        product D = (zeta^(qd) t^(dn) - 1) prod_(i<n) (t^(ei) - 1), W the
        integer coordinates that ``symfunc.ring_weight`` divides out once
        per beta, with no gcd.  On an untwisted coset D is a multiple of
        every det (Springer's theorem), and common is 1.  Where a division
        leaves a remainder, common takes that class's det and all divisions
        rerun on D common: only on the five twisted sets tried whose
        OmegaPrime is not over Z[t]."""
        if self._weights is None:
            e, d, n, q = self.params.e, self.params.d, self.params.n, self.params.q
            field, level0 = self.field, self.levels[0]
            one = TPoly.constant(field.one)
            big_d = TPoly.t_power(field, d * n, field.zeta(q * d)) - one
            for i in range(1, n):
                big_d = big_d * (TPoly.t_power(field, e * i) - one)
            z_of = {xi.beta: self.z_integer(xi) for xi in self.class_params}
            common, tried = one, set()
            while True:
                ring = [list(c.num) + [0] * (e - len(c.num)) for c in (big_d * common).coeffs]
                by_beta = {beta: (z, ring_weight(level0, ring, beta)) for beta, z in z_of.items()}
                miss = next((beta for beta, (_, ints) in by_beta.items() if ints is None), None)
                if miss is None:
                    break
                if miss in tried:
                    raise ArithmeticError(f"class {miss} leaves a remainder over its own det")
                tried.add(miss)
                common = common * level0.det_poly(miss)
            self._weights = [by_beta[xi.beta] for xi in self.class_params], common
        return self._weights

    def omega_prime(self):
        """O'[z,z'] = t^(N*) D sum_xi X[xi,z] conj(X[xi,z']) / (z_xi det_xi):
        the class sum over ``_class_weights``, each numerator then shifted.

        The numerators N, in coordinate lists, and their common denominator
        L of the class sum (``gram_numerators``) are kept for the block LDU
        and its certificate; the canonical fractions are built only here,
        for printing.  For q = 0, O'[z,z'] = O'[s z', s z] with s the
        conjugation permutation, so the class sum takes one entry of each
        such pair."""
        if self._omega is None:
            cols = list(zip(*self.coset_table()))
            nums, common = gram_numerators(
                cols, cols, *self._class_weights(), self.conjugation_permutation())
            shift = [0] * self.n_star()
            self._omega_nums = [[[shift + c if c else c for c in x] for x in row]
                                for row in nums], common
            self._omega = as_fractions(*self._omega_nums)
        return self._omega

    def fake_degrees(self):
        """R_q(chi~^z) for every character z, by the class sum

          (zeta^(qd) t^(dn) - 1) prod_(i<n) (t^(ei) - 1)
              sum_xi det_M(w_xi) X[xi,z] / (z_xi det_xi),

        a polynomial for q = 0; one column of ``gram_numerators``."""
        cols = list(zip(*self.coset_table()))
        dets = [[self.det_of_class(xi.beta).conjugate() for xi in self.class_params]]
        column = as_fractions(*gram_numerators(cols, dets, *self._class_weights()))
        return {z: row[0] for z, row in zip(self.chars, column)}

    def green(self):
        if self._green is None:
            self._green = self._compute_green()
        return self._green

    def _omega_in_u(self):
        """(A, m): A(u) = u^m N(1/u) for OmegaPrime = N / L, with m the
        largest degree in N, in coordinate lists: each list of N reversed
        into the slots up to u^m, apart from the read-back ``_reversal``."""
        self.omega_prime()
        nums, _ = self._omega_nums
        m = max(len(c) for row in nums for x in row for c in x) - 1
        return [[[[0] * (m + 1 - len(c)) + trim(c[::-1]) if any(c) else [] for c in x]
                 for x in row] for row in nums], m

    def assembly_ldu(self):
        """The block LDU (l, d, u) of A(u) = u^m N(1/u) (``_omega_in_u``)
        that the Kostka assembly hands in, where the elimination of
        ``_ldu_factors`` does not apply.  As Ktilde(+/-)(1/u) = K(+/-)(u) T(1/u),

          A = K-(u) D(u) tr(K+(u)),   D = u^m L(1/u) T(1/u) LambdaTilde(1/u) T(1/u),

        so l and u are K- and tr(K+) (``kostka_assembled``) with t renamed
        u, and d the diagonal blocks of P-(u) A tr(P+(u)), P = K^(-1) unit
        lower-triangular and polynomial like K (``linalg.invert_unit_lower``):
        one ``linalg.PackedProduct``, read back on the diagonal blocks only.
        That the other blocks vanish is for ``wreath.ldu_certified`` to
        check.  The factors, which may carry zeta, are handed in coordinate
        lists (``TPoly.coords``), as the elimination hands in its own."""
        if self._assembly is None:
            a_u, _ = self._omega_in_u()
            field = self.field
            km, kp = (self.kostka_assembled(s) for s in (-1, +1))
            pm, pp = ([[x.num.coords(field) for x in row] for row in linalg.invert_unit_lower(k)]
                      for k in (km, kp))
            product = linalg.PackedProduct(field, pm, a_u, [list(col) for col in zip(*pp)])
            d, start = [], 0
            for size in self.blocks:
                block = range(start, start + size)
                start += size
                d.append([[product.entry(i, j) for j in block] for i in block])
            self._assembly = ([[x.num.coords(field) for x in row] for row in km], d,
                              [[x.num.coords(field) for x in col] for col in zip(*kp)])
        return self._assembly

    def lambda_matrix(self):
        """LambdaTilde read back (``_read_back``) off the factors of the
        Kostka assembly (``assembly_ldu``)."""
        return self._read_back(*self.assembly_ldu(), self._omega_in_u()[1])[1]

    def _ldu_factors(self):
        """((l, d, u, m), certified, route): the block LDU of
        A(u) = u^m N(1/u) (``_omega_in_u``) along the similarity classes,
        whether l diag(d) u = A holds exactly, and a line naming the route.

        Where L = 1 and A(0) = +-I, the elimination of the Hall-Littlewood
        data (``wreath.certified_ldu``) finds it from precision m + 1 (above
        the degree of every factor on each set tried; deg A + 1 is below
        that of d on all of them).  A coefficient with zeta, A(0) != +-I or
        three failed certificates end that route, named in the route line,
        and the Kostka assembly hands in its factors (``assembly_ldu``),
        judged by the same ``wreath.ldu_certified``.  Substituting u = 1/t
        maps l, diag(d) and u one to one onto Ktilde- T^(-1),
        t^(-m) L T LambdaTilde T and T^(-1) tr(Ktilde+), whose product is
        t^(-m) N, so the certificate on A is that of the factorization of
        OmegaPrime.  Kept for ``green`` and ``kostka_gepn``."""
        if self._factors is None:
            a_u, m = self._omega_in_u()
            common = self._omega_nums[1]
            try:
                if not (common.is_constant() and common.coeffs[0].is_one()):
                    raise ValueError("OmegaPrime is not over Z[t]")
                factors = wreath.certified_ldu(self.field, a_u, self.blocks, m + 1)
                certified, route = True, "block LDU of u^m OmegaPrime(1/u) over Z[u], certified"
            except (ValueError, ArithmeticError) as exc:
                factors = self.assembly_ldu()
                certified = wreath.ldu_certified(self.field, a_u, self.blocks, *factors)
                route = f"Kostka assembly ({exc})"
            self._factors = (*factors, m), certified, route
        return self._factors

    def _read_back(self, l, d, u, m):
        """(Ktilde-, LambdaTilde, Ktilde+) off a block LDU (l, d, u) of
        A(u) = u^m N(1/u), OmegaPrime = N / L, in coordinate lists,
        whichever route gave it.

        By the substitution of ``_ldu_factors``, ``_reversal`` reads
        Ktilde-[i][j] off l[i][j] with top power t^(a_j), Ktilde+[j][i] off
        u[i][j] with top power t^(a_i), and L LambdaTilde[i][j] off d with
        top power t^(m - a_i - a_j), each from the TPoly of the coordinate
        lists (``TPoly.from_coords``); where L is not 1, the last are put
        over L in canonical form.  A is built apart from the read-back, so a
        fault of it reaches the printed matrices, where ``verify`` compares
        them with the assembly."""
        field, a_diag = self.field, self.a_diag
        common = self._omega_nums[1]
        over_one = common.is_constant() and common.eval_zero().is_one()

        def reversal(x, top):
            return _reversal(TPoly.from_coords(field, x), top)

        km = [[reversal(v, a) for v, a in zip(row, a_diag)] for row in l]
        kp = [[reversal(v, a) for v, a in zip(col, a_diag)] for col in zip(*u)]
        lam = [[self.zero] * len(l) for _ in l]
        start = 0
        for dk in d:
            for i, row in enumerate(dk, start):
                for j, v in enumerate(row, start):
                    x = reversal(v, m - a_diag[i] - a_diag[j])
                    lam[i][j] = x if over_one else TRat(x.num, x.den * common)
            start += len(dk)
        return km, lam, kp

    def _compute_green(self):
        k = len(self.chars)
        labels, blocks = self.labels, self.blocks
        omega = self.omega_prime()
        factors, residual_zero, route = self._ldu_factors()
        km, lam_tilde, kp = self._read_back(*factors)
        # symmetric presentation: columns relabeled by character conjugation
        # (this is the form the reference tables display); none for q != 0
        sigma = self.conjugation_permutation()
        lam_sym = None if sigma is None else LabeledMatrix(
            labels, labels, [[lam_tilde[i][s] for s in sigma] for i in range(k)], blocks, blocks
        )
        return GreenSuite(
            params=self.params,
            r=self.r,
            char_params=list(self.chars),
            labels=labels,
            blocks=blocks,
            a_diag=self.a_diag,
            ktilde_minus=LabeledMatrix(labels, labels, km, blocks, blocks),
            ktilde_plus=LabeledMatrix(labels, labels, kp, blocks, blocks),
            lambda_tilde=LabeledMatrix(labels, labels, lam_tilde, blocks, blocks),
            lambda_symmetric=lam_sym,
            omega_prime=LabeledMatrix(labels, labels, omega, blocks, blocks),
            residual_zero=residual_zero,
            route=route,
        )


def _central_image(beta, k, invert):
    """The e-partition of zeta^k w for w of class beta, or of its inverse
    where invert: a part r of colour c goes to colour c + k r, negated."""
    e = len(beta)
    comps = [[] for _ in beta]
    for c, comp in enumerate(beta):
        for r in comp:
            image = (c + k * r) % e
            comps[-image % e if invert else image].append(r)
    return tuple(tuple(sorted(comp, reverse=True)) for comp in comps)


def _valuation(poly):
    """The exponent of the lowest power of t in a nonzero TPoly."""
    return next(m for m, c in enumerate(poly.coeffs) if not c.is_zero())


def _times_t_power(poly, k):
    """t^k poly, by a shift of the coefficients."""
    if not k or poly.is_zero():
        return poly
    return TPoly(poly.field, (poly.field.zero,) * k + poly.coeffs, trusted=True)


def _reversal(poly, top):
    """sum_m c_m t^(top - m) for poly = sum_m c_m t^m, as a canonical TRat,
    with no gcd: for c_v, c_d the lowest and highest nonzero coefficients,
    the reversal c_d + ... + c_v t^(d-v) times t^(top - d), or over
    t^(d - top) when d > top, where c_d != 0 keeps the fraction canonical.
    ``_read_back`` reads all three factors off the LDU in u = 1/t by it."""
    if poly.is_zero():
        return TRat(poly, reduce=False)
    field, d = poly.field, poly.degree()
    rev = TPoly(field, poly.coeffs[_valuation(poly):][::-1], trusted=True)
    if d <= top:
        return TRat(_times_t_power(rev, top - d), reduce=False)
    return TRat(rev, TPoly.t_power(field, d - top), reduce=False)


class GreenSuite(namedtuple(
        "GreenSuite",
        "params r char_params labels blocks a_diag ktilde_minus ktilde_plus"
        " lambda_tilde lambda_symmetric omega_prime residual_zero route")):
    """The Green-function data of one (e,p,n,q,r).  The matrices are
    LabeledMatrix; lambda_symmetric is None for a twisted coset (q != 0);
    route names the route that gave Ktilde+- and LambdaTilde and is not in
    the JSON."""

    __slots__ = ()

    def to_json(self, entry=lambda x: x.to_json()):
        """Plain JSON data, each matrix entry as entry(x) (``LabeledMatrix.to_json``)."""
        return {
            "e": self.params.e,
            "p": self.params.p,
            "n": self.params.n,
            "q": self.params.q,
            "r": self.r,
            "blocks": self.blocks,
            "a_values": self.a_diag,
            "ktilde_minus": self.ktilde_minus.to_json(entry),
            "ktilde_plus": self.ktilde_plus.to_json(entry),
            "lambda_tilde": self.lambda_tilde.to_json(entry),
            "lambda_symmetric": (
                None if self.lambda_symmetric is None else self.lambda_symmetric.to_json(entry)
            ),
            "omega_prime": self.omega_prime.to_json(entry),
            "residual_zero": self.residual_zero,
        }


class CosetTable(namedtuple("CosetTable", "params rows cols entries")):
    """Character table of the coset: rows are CharParam, cols ClassParam,
    and entries[char][class] a CycNum."""

    __slots__ = ()

    def matrix(self, entry=TRat.from_cyc):
        """The table with labels, each entry as entry(v): by default the
        constant function of t."""
        return LabeledMatrix(
            [z.label() for z in self.rows],
            [xi.label() for xi in self.cols],
            [[entry(v) for v in row] for row in self.entries],
        )


class ZCoset(namedtuple("ZCoset", "beta b centralizer value")):
    __slots__ = ()


# ---------------------------------------------------------------------------
# public operations


def coset_char_table(params, r=2):
    alg = coset_algebra(params, r)
    table = alg.coset_table()
    entries = [list(col) for col in zip(*table)]      # chars x classes
    return CosetTable(params, list(alg.chars), list(alg.class_params), entries)


def z_coset(xi, params, r=2):
    alg = coset_algebra(params, r)
    return ZCoset(
        beta=xi.beta,
        b=xi.b,
        centralizer=alg.z_integer(xi),
        value=alg.z_coset_series(xi),
    )


def kostka_gepn(params, r=2, sign=-1):
    alg = coset_algebra(params, r)
    (l, _, u, _), _, _ = alg._ldu_factors()
    entries = [[TRat(TPoly.from_coords(alg.field, x), reduce=False) for x in row]
               for row in (l if sign < 0 else zip(*u))]
    return LabeledMatrix(alg.labels, alg.labels, entries, alg.blocks, alg.blocks)


def green_suite(params, r=2):
    return coset_algebra(params, r).green()


def fake_degrees(params, r=2):
    return coset_algebra(params, r).fake_degrees()
