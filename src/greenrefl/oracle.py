"""Brute-force verification oracle for G(e,p,n) and its twisted cosets.

Elements are monomial matrices stored as (perm, colors): w maps the basis
vector e_i to zeta^colors[i] * e_perm[i].  The oracle enumerates the group,
computes conjugacy classes, orbits on a coset, centralizer orders, and the
full character table by Dixon's method: the class-algebra structure
constants are simultaneously diagonalized over a prime field F_p with
p = 1 (mod exponent), and the eigenvalue data is lifted exactly to Q(zeta).

Everything here is independent of the symmetric-function machinery; it
exists to validate it.
"""

from collections import namedtuple
from itertools import permutations, product
from math import isqrt, lcm

from .combinatorics import CharParam, GroupParams, ep_str, orbit_data
from .exact_arith import CycField, TPoly, TRat

SIZE_CAP = 10 ** 6
# OmegaPrime is checked against its class sum over the group for at most
# this many classes k: the sum takes about k^3 / 2 products of packed
# integers, measured at 0.2 s on G(3,1,4) (k = 51), 1.6 s on G(3,1,5)
# (k = 108) and 4.7 s on G(6,2,4) (k = 171), 2 vCPUs, Python 3.11
OMEGA_CLASS_CAP = 200


def e_mul(w1, w2, e):
    x1, a1 = w1
    x2, a2 = w2
    perm = tuple(x1[i2] for i2 in x2)
    colors = tuple((a2[i] + a1[x2[i]]) % e for i in range(len(x2)))
    return perm, colors


def e_inv(w, e):
    x, a = w
    n = len(x)
    xi = [0] * n
    for i, j in enumerate(x):
        xi[j] = i
    colors = tuple((-a[xi[i]]) % e for i in range(n))
    return tuple(xi), colors


def element_order(w, e):
    n = len(w[0])
    identity = (tuple(range(n)), (0,) * n)
    cur = w
    order = 1
    while cur != identity:
        cur = e_mul(cur, w, e)
        order += 1
    return order


class BruteForceGroup:
    """Explicit model of W = G(e,p,n) (and the coset sigma^q W on demand)."""

    def __init__(self, params: GroupParams):
        if params.order > SIZE_CAP:
            raise ValueError(f"|W| = {params.order} exceeds the size cap {SIZE_CAP}")
        self.params = params
        e, p, n = params.e, params.p, params.n
        self.e = e
        self.n = n
        self.identity = (tuple(range(n)), (0,) * n)
        self.elements = self.coset_elements(0)
        gens = []
        for i in range(n - 1):
            perm = list(range(n))
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
            gens.append((tuple(perm), (0,) * n))
        if p < e:
            gens.append((tuple(range(n)), (p,) + (0,) * (n - 1)))
        if n >= 2:
            colors = [0] * n
            colors[0], colors[1] = 1, e - 1
            perm = list(range(n))
            perm[0], perm[1] = 1, 0
            gens.append((tuple(perm), tuple(colors)))
        if not gens:
            gens.append((tuple(range(n)), (p % e,) + (0,) * (n - 1)))
        self.generators = [g for g in gens if sum(g[1]) % p == 0]
        self._coset_orbits = {}
        self._char_table = None

    @property
    def order(self):
        return len(self.elements)

    # -- conjugacy classes and coset orbits ---------------------------------

    def conjugacy_classes(self):
        return self.coset_orbits(0)

    def coset_elements(self, q):
        e, p, n = self.e, self.params.p, self.n
        return [
            (perm, colors)
            for perm in permutations(range(n))
            for colors in product(range(e), repeat=n)
            if sum(colors) % p == q % p
        ]

    def coset_orbits(self, q):
        """W-orbits on the coset sigma^q W under conjugation."""
        return self._orbit_data(q)[0]

    def _orbit_data(self, q):
        """(orbits on sigma^q W, {element: index of its orbit})."""
        q %= self.params.p
        if q not in self._coset_orbits:
            orbits = self._orbits(self.coset_elements(q) if q else self.elements)
            index = {w: i for i, orbit in enumerate(orbits) for w in orbit}
            self._coset_orbits[q] = orbits, index
        return self._coset_orbits[q]

    def _orbits(self, pool):
        e = self.e
        gen_pairs = [(g, e_inv(g, e)) for g in self.generators]
        remaining = set(pool)
        orbits = []
        for w in pool:
            if w not in remaining:
                continue
            orbit = {w}
            frontier = [w]
            while frontier:
                cur = frontier.pop()
                for g, gi in gen_pairs:
                    nxt = e_mul(g, e_mul(cur, gi, e), e)
                    if nxt not in orbit:
                        orbit.add(nxt)
                        frontier.append(nxt)
            remaining -= orbit
            orbits.append(sorted(orbit))
        orbits.sort(key=lambda o: o[0])
        return orbits

    def centralizer_order(self, w, q=None):
        return self.order // len(self.coset_orbits(q or 0)[self.class_index_of(w, q)])

    # -- canonical class representatives -------------------------------------

    def element_for_class_param(self, beta, b):
        """The coset element built from (beta, b): one cycle per part, its
        color at the leading index, except the first cycle which splits its
        color as (k - b, ..., b)."""
        e, n = self.e, self.n
        perm = list(range(n))
        colors = [0] * n
        pos = 0
        first = True
        for k, comp in enumerate(beta):
            for part in comp:
                idx = list(range(pos, pos + part))
                for i in range(part - 1):
                    perm[idx[i]] = idx[i + 1]
                perm[idx[-1]] = idx[0]
                if first:
                    colors[idx[0]] = (k - b) % e
                    colors[idx[-1]] = (colors[idx[-1]] + b) % e
                    first = False
                else:
                    colors[idx[0]] = k % e
                pos += part
        return tuple(perm), tuple(colors)

    def class_index_of(self, w, q=None):
        try:
            return self._orbit_data(q or 0)[1][w]
        except KeyError:
            raise ValueError("element not in the requested coset") from None

    # -- Dixon character table ------------------------------------------------

    def exponent(self):
        return lcm(*(element_order(cls[0], self.e) for cls in self.conjugacy_classes()))

    def character_table(self):
        """Exact character table: rows are irreducible characters (in a
        deterministic but otherwise arbitrary order), columns follow
        ``conjugacy_classes``; values lie in Q(zeta_exponent)."""
        if self._char_table is None:
            self._char_table = _dixon(self)
        return self._char_table

    def table_problems(self, rows, cols, entries):
        """What is wrong with a character table of W, by the Dixon table;
        ``[]`` when nothing is.

        ``rows`` are ``CharParam``s, ``cols`` ``ClassParam``s (the class of
        ``element_for_class_param``) and ``entries[row][col]`` lie in
        Q(zeta_e).  Three checks, each seeing a fault the others miss:

        * the rows, as a set, are the Dixon rows (blind to the labels);
        * w -> zeta_e^(sum of the colours of w) and w -> trace(w) are the
          characters (();(n);();...) and ((n-1);(1);();...) of G(e,1,n), so
          the rows whose orbit holds that label sum to them on W; a table
          conjugated as a whole fails this where they are not real;
        * conjugation by sigma = diag(zeta_e, 1, ..., 1) takes the values of
          (alpha, phi) to those of (alpha, phi + 1 mod p/c), which a table
          with its phi labels permuted fails.
        """
        if self.params.q:
            raise ValueError("the brute-force character table is one of W, not of a coset")
        e, p, n = self.e, self.params.p, self.n
        dixon = self.character_table()
        reps = [self.element_for_class_param(xi.beta, xi.b) for xi in cols]
        classes = [self.class_index_of(w) for w in reps]
        col_of = {c: x for x, c in enumerate(classes)}
        k = len(dixon)
        if not len(rows) == len(set(rows)) == len(entries) == len(col_of) == k:
            return [f"the table is not {k} distinct characters on {k} classes"]
        common = lcm(dixon[0][0].field.e, e)          # values compared in Q(zeta_common)
        zero, problems = CycField(common).zero, []
        ours = {tuple(v.embed(common) for v in row) for row in entries}
        theirs = {tuple(row[c].embed(common) for c in classes) for row in dixon}
        if ours != theirs:
            problems.append("the rows differ from the Dixon table")
        if e >= 2:
            cyc, blank = CycField(e), ((),) * (e - 2)
            known = {((), (n,)) + blank: lambda perm, colours: cyc.zeta(sum(colours))}
            if n >= 2:
                known[((n - 1,), (1,)) + blank] = lambda perm, colours: sum(
                    (cyc.zeta(c) for i, c in enumerate(colours) if perm[i] == i), cyc.zero
                )
            for alpha, value in known.items():
                mine = [row for z, row in zip(rows, entries) if alpha in orbit_data(z.alpha, p)[0]]
                bad = [
                    xi.label() for x, (xi, w) in enumerate(zip(cols, reps))
                    if sum((row[x].embed(common) for row in mine), zero) != value(*w).embed(common)
                ]
                if bad:
                    problems.append(f"the rows of {ep_str(alpha)} are not its character on {bad[0]}")
        sigma = (tuple(range(n)), (1,) + (0,) * (n - 1))
        image = [
            col_of[self.class_index_of(e_mul(e_mul(sigma, w, e), e_inv(sigma, e), e))]
            for w in reps
        ]
        row_of = {z: i for i, z in enumerate(rows)}
        for z, row in zip(rows, entries):
            c = orbit_data(z.alpha, p)[1]
            step = row_of.get(CharParam(z.alpha, (z.phi + 1) % (p // c)))
            if step is None or any(row[y] != entries[step][x] for x, y in enumerate(image)):
                problems.append(f"conjugation by sigma does not step the phi label of {z.label()}")
        return problems

    def omega_prime_problems(self, alg):
        """What is wrong with ``alg.omega_prime()``, the OmegaPrime of W =
        G(e,p,n) at q = 0, by its defining class sum over the enumerated
        group; ``[]`` when nothing is:

          OmegaPrime[z][z'] = t^(N*) D sum_C (|C| / |W|) chi_z(C)
                              conj(chi_z'(C)) / det(t id - w_C),

        C the classes of the enumeration and w_C their first elements,
        det(t id - w) = prod (t^l - zeta^c) over the cycles of w (length l,
        colour sum c), D the lcm of the dets by ``TPoly.gcd``, and N* the
        number of reflections, the elements that fix a hyperplane (a cycle
        fixes a vector exactly when its colour sum is 0).  chi is X(0),
        ``alg.coset_table()``, read at the class of
        ``element_for_class_param``; ``table_problems`` checks X(0) itself.
        OmegaPrime[z][z'] = OmegaPrime[s z'][s z] for the permutation s with
        chi_(s z) = conj(chi_z), so only one entry of each such pair is
        summed, on packed integers (``_pack``): about k^3 / 2 integer
        products for k classes (``OMEGA_CLASS_CAP``), and one reduction to
        the power basis per coefficient."""
        if alg.params != self.params or self.params.q:
            raise ValueError("the class sum is that of OmegaPrime of W, with q = 0")
        e, n, field = self.e, self.n, CycField(self.e)
        one = TPoly.constant(field.one)
        classes = self.conjugacy_classes()
        dets, n_star = [], 0
        for cls in classes:
            perm, colours = cls[0]
            det, seen, fixed = one, set(), 0
            for i in range(n):
                length, colour, j = 0, 0, i
                while j not in seen:
                    seen.add(j)
                    length, colour, j = length + 1, colour + colours[j], perm[j]
                if length:
                    fixed += colour % e == 0
                    det = det * (TPoly.t_power(field, length)
                                 - TPoly.constant(field.zeta(colour % e)))
            n_star += len(cls) if fixed == n - 1 else 0
            dets.append(det)
        big_d = one
        for det in dets:
            big_d = big_d * det.divmod(big_d.gcd(det))[0]
        table = alg.coset_table()
        rows = {self.class_index_of(self.element_for_class_param(xi.beta, xi.b)): row
                for xi, row in zip(alg.class_params, table)}
        if len(rows) != len(classes):
            return ["the class params do not name every class"]
        # the classes with one det share the weight D / det
        groups = {}
        for c, det in enumerate(dets):
            groups.setdefault(det, []).append(c)
        weights = [(big_d.divmod(det)[0], members) for det, members in groups.items()]
        conj = {c: [x.conjugate() for x in row] for c, row in rows.items()}
        values = [x for row in (*rows.values(), *conj.values()) for x in row]
        if any(x.den != 1 for x in values):
            return ["a character value is not in Z[zeta]"]
        # every value is in Z[zeta], D / det too, so the class sum of an
        # entry runs on integers: x = sum_j x_j zeta^j (power basis, j < phi)
        # packs to sum_j x_j 2^(B j), coefficient i of a weight from
        # 2^(B S i) on, with S = 3 phi - 2 slots per power of t for the zeta
        # powers of a product of three.  B holds every slot of the sum
        # (|coordinate of x y w| <= |x|_1 |y|_1 max |w|), with a sign bit
        d, k = field.degree, len(alg.chars)
        stride, top = 3 * d - 2, max(w.degree() for w, _ in weights) + 1
        bound = 0
        for w, members in weights:
            big = max(abs(v) for x in w.coeffs for v in x.num)
            bound += big * sum(len(classes[c]) * max(sum(map(abs, x.num)) for x in rows[c])
                               * max(sum(map(abs, x.num)) for x in conj[c]) for c in members)
        bits = bound.bit_length() + 2
        packed = [(_pack([_pack(x.num, bits) for x in w.coeffs], bits * stride),
                   [([_pack(x.num, bits) * len(classes[c]) for x in rows[c]],
                     [_pack(x.num, bits) for x in conj[c]]) for c in members])
                  for w, members in weights]
        powers = [field.zeta(j).num for j in range(stride)]
        column = {tuple(row[a] for row in table): a for a in range(k)}
        mirror = [column.get(tuple(row[a].conjugate() for row in table)) for a in range(k)]
        if None in mirror:
            return ["the conjugate of a character is not in X(0)"]
        want, shift, done = alg.omega_prime(), [field.zero] * n_star, set()
        for a in range(k):
            for b in range(k):
                if (a, b) in done:
                    continue
                done.add((mirror[b], mirror[a]))
                acc = 0
                for w, members in packed:
                    coeff = sum(left[a] * right[b] for left, right in members)
                    if coeff:
                        acc += coeff * w
                digits = _unpack(acc, bits, top * stride)
                coeffs = []
                for i in range(0, top * stride, stride):
                    slots = digits[i : i + stride]
                    coeffs.append(field.make(
                        [sum(v * zj[m] for v, zj in zip(slots, powers) if v) for m in range(d)],
                        self.order))
                got = TRat(TPoly(field, shift + coeffs), reduce=False)
                if got != want[a][b] or got != want[mirror[b]][mirror[a]]:
                    return [f"OmegaPrime[{alg.labels[a]}][{alg.labels[b]}] is not the class sum"]
        return []


# the class sum keeps its own codec: the OmegaPrime it checks is packed by
# exact_arith's kron_pack and kron_digits (``symfunc.gram_numerators``)


def _pack(digits, bits):
    """sum_j digits[j] 2^(bits j) for integers digits."""
    v = 0
    for c in reversed(digits):
        v = (v << bits) + c
    return v


def _unpack(v, bits, count):
    """The count balanced base-2^bits digits of v, lowest first, each in
    [-2^(bits-1), 2^(bits-1)): the digits that ``_pack`` took when each
    lay in that range."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    for _ in range(count):
        c = v & mask
        v >>= bits
        if c >= half:
            c -= mask + 1
            v += 1
        out.append(c)
    if v:
        raise ArithmeticError("a packed class sum overflows its slots")
    return out


def _find_prime(modulus, lower):
    """Smallest prime p = 1 (mod modulus) with p > lower."""
    k = max(1, (lower // modulus) + 1)
    while True:
        p = k * modulus + 1
        if p > lower and all(p % q for q in range(2, isqrt(p) + 1)):
            return p
        k += 1


def _reduce_mod_p(rows, width, p):
    """Gauss-Jordan elimination over F_p on the first ``width`` columns of
    ``rows``, in place; returns the pivot column of each leading row."""
    pivots = []
    for col in range(width):
        r = len(pivots)
        piv = next((rr for rr in range(r, len(rows)) if rows[rr][col] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][col] % p:
                f = rows[rr][col]
                rows[rr] = [(x - f * y) % p for x, y in zip(rows[rr], rows[r])]
        pivots.append(col)
    return pivots


def _kernel_mod_p(matrix, p):
    """Basis of the kernel of a square matrix over F_p."""
    k = len(matrix)
    a = [row[:] for row in matrix]
    pivots = _reduce_mod_p(a, k, p)
    basis = []
    for col in (c for c in range(k) if c not in pivots):
        vec = [int(c == col) for c in range(k)]
        for r, pc in enumerate(pivots):
            vec[pc] = (-a[r][col]) % p
        basis.append(vec)
    return basis


def _solve_mod_p(a, b, p):
    """Solve a x = b mod p for full-column-rank a (k x d), b (k x c)."""
    d = len(a[0])
    rows = [ra + rb for ra, rb in zip(a, b)]
    if len(_reduce_mod_p(rows, d, p)) < d:
        raise ArithmeticError("singular system")
    return [row[d:] for row in rows[:d]]


def _dixon(group):
    classes = group.conjugacy_classes()
    k = len(classes)
    reps = [cls[0] for cls in classes]
    sizes = [len(cls) for cls in classes]
    class_of = group._orbit_data(0)[1]
    e = group.e
    inv_class = [class_of[e_inv(rep, e)] for rep in reps]

    # structure constants: M_i[j][l] = #{u in C_i : u^{-1} g_l in C_j}
    mats = []
    for i in range(k):
        mat = [[0] * k for _ in range(k)]
        for l, rep in enumerate(reps):
            for u in classes[i]:
                j = class_of[e_mul(e_inv(u, e), rep, e)]
                mat[j][l] += 1
        mats.append(mat)

    m = group.exponent()
    p = _find_prime(m, 2 * isqrt(group.order) + 1)

    # split the class algebra into one-dimensional common eigenspaces
    spaces = [[[1 if i == j else 0 for j in range(k)] for i in range(k)]]
    for mat in mats:
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            # restriction N of the matrix to the subspace: columns of N solve
            # M b_i = sum_j N[j][i] b_j;  set up the k x d system once
            d = len(basis)
            images = [
                [sum(mat[r][c] * b[c] for c in range(k)) % p for r in range(k)] for b in basis
            ]
            # solve for coordinates of each image in the row space
            bt = [[basis[j][r] for j in range(d)] for r in range(k)]
            coords = _solve_mod_p(bt, [[img[r] for img in images] for r in range(k)], p)
            n_mat = [[coords[j][i] for i in range(d)] for j in range(d)]
            seen = 0
            for lam in range(p):
                shifted = [
                    [(n_mat[r][c] - (lam if r == c else 0)) % p for c in range(d)]
                    for r in range(d)
                ]
                ker = _kernel_mod_p(shifted, p)
                if ker:
                    new_spaces.append([
                        [sum(cf * b[r] for cf, b in zip(coeffs, basis)) % p for r in range(k)]
                        for coeffs in ker
                    ])
                    seen += len(ker)
                    if seen == d:
                        break
            if seen != d:
                raise ArithmeticError("class algebra failed to split")
        spaces = new_spaces

    rays = [space[0] for space in spaces]
    if len(rays) != k:
        raise ArithmeticError("wrong number of central characters")

    ident = class_of[group.identity]
    # normalize: the central character takes value |C_i| chi(g_i)/chi(1),
    # so the coordinate at the identity class is 1
    table_mod = []
    for ray in rays:
        if ray[ident] % p == 0:
            raise ArithmeticError("degenerate ray")
        inv = pow(ray[ident], p - 2, p)
        w = [(x * inv) % p for x in ray]
        # chi(1)^2 = |G| / sum_j w_j w_{j*} / |C_j|
        denom = 0
        for j in range(k):
            denom = (denom + w[j] * w[inv_class[j]] * pow(sizes[j], p - 2, p)) % p
        val = (group.order % p) * pow(denom, p - 2, p) % p
        deg = next((c for c in range(1, isqrt(group.order) + 1) if c * c % p == val), None)
        if deg is None:
            raise ArithmeticError("could not recover a character degree")
        table_mod.append([(w[j] * deg % p) * pow(sizes[j], p - 2, p) % p for j in range(k)])

    # lift to Q(zeta_m): chi(g) = sum_l a_l zeta_o^l with
    # a_l = (1/o) sum_s chi^(g^s) z_o^(-l s) mod p, each a_l a small integer
    field = CycField(m)
    z = _element_of_order(m, p)
    orders = [element_order(rep, e) for rep in reps]
    power_class = []                       # power_class[j][s]: the class of rep_j^s
    for rep, o in zip(reps, orders):
        powers = [group.identity]
        while len(powers) < o:
            powers.append(e_mul(powers[-1], rep, e))
        power_class.append([class_of[w] for w in powers])

    table = []
    for row_mod in table_mod:
        row = []
        for j in range(k):
            o = orders[j]
            zo = pow(z, m // o, p)
            inv_o = pow(o, p - 2, p)
            val = field.zero
            for l in range(o):
                acc = 0
                for s in range(o):
                    acc = (acc + row_mod[power_class[j][s]] * pow(zo, (-l * s) % o, p)) % p
                a_l = acc * inv_o % p
                if a_l > p // 2:
                    raise ArithmeticError("lifted multiplicity out of range")
                if a_l:
                    val = val + field.zeta((l * (m // o)) % m) * a_l
            row.append(val)
        table.append(row)
    return table


def _element_of_order(m, p):
    """An element of exact multiplicative order m in F_p (m | p-1)."""
    primes = [
        q for q in range(2, m + 1) if m % q == 0 and all(q % r for r in range(2, isqrt(q) + 1))
    ]
    for g in range(1, p):
        x = pow(g, (p - 1) // m, p)
        if all(pow(x, m // q, p) != 1 for q in primes):
            return x
    raise ArithmeticError("no element of the requested order")


class GroupReport(namedtuple(
        "GroupReport", "params order class_count class_sizes centralizers coset_orbit_counts")):
    """Summary data produced by the brute-force oracle; coset_orbit_counts
    maps a coset label q to its number of orbits."""

    __slots__ = ()


def brute_force_oracle(params: GroupParams):
    group = BruteForceGroup(params)
    classes = group.conjugacy_classes()
    report = GroupReport(
        params=params,
        order=group.order,
        class_count=len(classes),
        class_sizes=[len(c) for c in classes],
        centralizers=[group.order // len(c) for c in classes],
        coset_orbit_counts={params.q: len(group.coset_orbits(params.q))},
    )
    return group, report
