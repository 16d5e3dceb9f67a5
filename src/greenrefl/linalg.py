"""Small exact linear algebra over a field of scalars (CycNum or TRat), or
over the packed power series TSeries, where every pivot met must be a unit.

Scalars must support +, -, *, /, ``inverse()``, ``is_zero()`` and
equality.  Matrices are plain lists of lists; everything is deterministic
(first nonzero pivot).
"""

from __future__ import annotations


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
