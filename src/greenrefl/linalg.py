"""Small exact linear algebra over a field of scalars (CycNum or TRat), or
over TSeries, Z[t]/(t^M) packed into one int, where every pivot met must
be a unit: the block LDU of the Hall-Littlewood data and of the Green
functions (``wreath.certified_ldu``).

Scalars must support +, -, *, /, ``inverse()``, ``is_zero()`` and
equality.  Matrices are plain lists of lists; everything is deterministic
(first nonzero pivot).

``PackedProduct`` is a triple product of matrices over Z[zeta][t] in
coordinate lists (``TPoly.coords``), multiplied out on integers packed by
the codec described in ``exact_arith``, with no gcd and no truncation.  It gives the diagonal
blocks d that the Kostka assembly hands in for the Green functions of a
coset, and the one exact certificate L D U = N of every block LDU
(``wreath.ldu_certified``).
"""

from .exact_arith import convolve_into, kron_digits, kron_pack


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0])
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(m):
            acc = None
            for l in range(k):
                x = row_a[l]
                if x.is_zero():
                    continue
                y = b[l][j]
                if y.is_zero():
                    continue
                term = x * y
                acc = term if acc is None else acc + term
            if acc is None:
                acc = row_a[0] - row_a[0]      # a zero of the right type
            row.append(acc)
        out.append(row)
    return out




def solve(a, b):
    """Solve A X = B exactly for the unique X.

    A is m x n with full column rank; the system must be consistent (m >= n).
    B is m x k.  Returns the n x k solution.
    """
    m, n = len(a), len(a[0])
    k = len(b[0])
    rows = [list(a[i]) + list(b[i]) for i in range(m)]
    pivot_rows = []
    col = 0
    for col in range(n):
        pivot = None
        for r in range(len(pivot_rows), m):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            raise ValueError("matrix does not have full column rank")
        r0 = len(pivot_rows)
        rows[r0], rows[pivot] = rows[pivot], rows[r0]
        inv = rows[r0][col].inverse()
        rows[r0] = [x * inv for x in rows[r0]]
        for r in range(m):
            if r != r0 and not rows[r][col].is_zero():
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[r0])]
        pivot_rows.append(col)
    # consistency: remaining rows must be zero
    for r in range(n, m):
        for x in rows[r][n:]:
            if not x.is_zero():
                raise ValueError("inconsistent linear system")
    return [rows[i][n:] for i in range(n)]


def _identity(a):
    """The identity matrix of the size and scalar type of the square a."""
    n = len(a)
    zero = a[0][0] - a[0][0]
    one = None
    for row in a:
        for x in row:
            if not x.is_zero():
                one = x / x
                break
        if one is not None:
            break
    if one is None:
        raise ValueError("singular matrix")
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def invert(a):
    return solve(a, _identity(a))


def invert_unit_lower(a):
    """Inverse of a unit lower-triangular matrix by forward substitution:
    row i of the inverse is e_i - sum_(l<i) a[i][l] (row l).  Raises
    ValueError when a is not unit lower-triangular."""
    zero = a[0][0] - a[0][0]
    out = []
    for i, row in enumerate(a):
        if not row[i].is_one() or any(not x.is_zero() for x in row[i + 1 :]):
            raise ValueError(f"not unit lower-triangular at row {i}")
        inv_row = [zero] * i + [row[i]] + [zero] * (len(a) - i - 1)
        for l, x in enumerate(row[:i]):
            if not x.is_zero():
                for j, z in enumerate(out[l][: l + 1]):
                    if not z.is_zero():
                        inv_row[j] = inv_row[j] - x * z
        out.append(inv_row)
    return out


def block_ldu(a, blocks):
    """Block LDU of the square a over consecutive index blocks of the given
    sizes.

    Returns (l, d, u) with a = l diag(d) u: l is block lower and u block
    upper unitriangular (identity diagonal blocks), and d lists the
    diagonal blocks.  Each step solves against the pivot block and updates
    only the trailing block of a, by its Schur complement.  Raises
    ValueError when a diagonal block is singular.
    """
    if sum(blocks) != len(a):
        raise ValueError("block sizes do not add up to the matrix size")
    a = [list(row) for row in a]
    l = _identity(a)
    u = [list(row) for row in l]
    d = []
    start = 0
    for size in blocks:
        piv = range(start, start + size)
        rest = range(start + size, len(a))
        start += size
        dk = [[a[i][j] for j in piv] for i in piv]
        d.append(dk)
        try:
            # L[rest, piv] = A[rest, piv] D^(-1), transposed, and
            # U[piv, rest] = D^(-1) A[piv, rest]
            lower_t = solve(_transpose(dk), [[a[i][k] for i in rest] for k in piv])
            upper = solve(dk, [a[k][start:] for k in piv])
        except ValueError:
            raise ValueError(f"singular diagonal block at index {piv.start}") from None
        for k, col, row in zip(piv, lower_t, upper):
            u[k][start:] = row
            for i, x in zip(rest, col):
                l[i][k] = x
        update = mat_mul(_transpose(lower_t), [a[k][start:] for k in piv])
        for i, row in zip(rest, update):
            a[i][start:] = [x - y for x, y in zip(a[i][start:], row)]
    return l, d, u


def _transpose(a):
    return [list(col) for col in zip(*a)]


class PackedProduct:
    """The product left mid right of matrices over Z[zeta][t] in coordinate
    lists (``TPoly.coords``), multiplied out exactly on packed integers
    (the codec of ``exact_arith``), with no gcd and no truncation;
    ``entry`` reads one entry back in coordinate lists (the d of
    ``gepn.CosetAlgebra.assembly_ldu``), and with a target given,
    ``matches`` says whether the product equals it (the one certificate,
    ``wreath.ldu_certified``).  An entry with other than the phi(e)
    coordinate lists of ``field`` raises ValueError.

    Coordinate m of zeta^m of an entry is one int at t = 2^B, and a row of
    right one int with a run of T slots of B bits per column, T above every
    degree involved.  zeta is not reduced inside the product (powers up to
    3 phi - 3); a summed row is folded by the power table only at the end.
    A coefficient of the unfolded product is at most S = max|left|_1
    sum|mid|_1 max|right|_1 (L1 norms of the integer coefficient vectors,
    the sum over every entry of mid), so a folded one is at most S (1 + F),
    with F the sum of the L1 norms of the folded powers.  B - 1 bits hold
    that and the largest coefficient of the target, so every slot reads
    back as one balanced digit and equal packed rows have equal slots.
    Zero entries are skipped: a block-diagonal mid costs only its blocks."""

    def __init__(self, field, left, mid, right, target=None):
        self.field = field
        phi = field.degree
        mats = [left, mid, right] + ([] if target is None else [target])
        for x in (x for mat in mats for row in mat for x in row):
            if len(x) != phi:
                raise ValueError(
                    f"an entry has {len(x)} coordinate lists, not the {phi} of Q(zeta_{field.e})")

        def l1_norms(mat):
            return [sum(abs(v) for c in x for v in c) for row in mat for x in row]

        def degree(mat):
            return max(0, max(len(c) for row in mat for x in row for c in x) - 1)

        top = max(l1_norms(left)) * sum(l1_norms(mid)) * max(l1_norms(right))
        top *= field.fold_growth(3 * phi - 2)
        deg = degree(left) + degree(mid) + degree(right)
        if target is not None:
            coeffs = (v for row in target for x in row for c in x for v in c)
            top = max(top, max(map(abs, coeffs), default=0))
            deg = max(deg, degree(target))
        self.bits = bits = top.bit_length() + 1
        self.run = run = bits * (deg + 1)

        def pack(x):
            return [kron_pack(c, bits) for c in x]

        def pack_row(row):
            return [kron_pack(coord, run) for coord in zip(*map(pack, row))]

        right_rows = [pack_row(row) for row in right]
        mid_cols = [
            [(k, pack(row[c])) for k, row in enumerate(mid) if any(row[c])]
            for c in range(len(right))
        ]
        self.rows = []
        for row in left:
            li = {k: pack(x) for k, x in enumerate(row) if any(x)}
            acc = [0] * (3 * phi - 2)
            for col, r_row in zip(mid_cols, right_rows):
                ld = [0] * (2 * phi - 1)
                for k, y in col:
                    if k in li:
                        convolve_into(ld, li[k], y)
                convolve_into(acc, ld, r_row)
            self.rows.append(field.fold(acc))
        if target is not None:
            self._target = [pack_row(row) for row in target]

    def matches(self):
        """Whether left mid right equals the target, slot for slot."""
        return self.rows == self._target

    def entry(self, i, j):
        """Entry (i, j) of left mid right in coordinate lists: column j of
        row i, isolated as the balanced residue modulo 2^run, read digit by
        digit."""
        run, shift = self.run, self.run * j
        half, mask = 1 << (run - 1), (1 << run) - 1
        coords = []
        for v in self.rows[i]:
            if shift:
                # the columns below j add up to less than 2^(shift-1) in
                # absolute value, so rounding drops them with no borrow
                v = (v + (1 << (shift - 1))) >> shift
            coords.append(kron_digits(((v + half) & mask) - half, self.bits))
        return coords
