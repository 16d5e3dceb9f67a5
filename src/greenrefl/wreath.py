"""Character tables, Hall-Littlewood functions and Kostka matrices for the
wreath-product level (one color structure, all of G(e,1,n)).

The two Hall-Littlewood families P+/P- attached to symbols with a fixed
shift r are pinned down by two conditions along the canonical total order
on similarity classes (largest a-value first):

    P(+/-)_z = s_z + multiples of s_z' for z' in strictly earlier classes,
    <P+_z, P-_z'> = 0 when z and z' lie in different classes.

Together these make them the unique block LDU of the Schur Gram matrix
G = (<s_a, s_b>) over the class blocks (the Lusztig-Shoji algorithm):
G = K+ diag(D) conj(K-)^T, where K(+/-) = M(s, P(+/-)) are the Kostka
matrices, block lower unitriangular, and D holds the within-class Gram
matrices <P+_z, P-_z'>.  The elimination runs on the polynomial numerators
N = L G over the degree product L = prod_(i<=n) (t^(e i) - 1), by
Springer's theorem the lcm of the z-series denominators, with the same K(+/-)
and D_N = L D.  N lies in Z[t] (``_compute_hl``) and N(0) = +-I, so it
runs in Z[t]/(t^M) packed into one integer per entry (Kronecker
substitution), with no gcd, on the integer coordinate lists that the class
sum hands over (``symfunc.gram_numerators``), and the factors read back are
kept only after an exact certificate, K+ diag(D_N) conj(K-)^T = N
multiplied out in Z[t] (``certified_ldu``, which also factors the Green
functions of a coset).  ``HLData`` holds those certified integer lists as
they are, and the disk cache stores them as they are.
The Kostka matrices as TRat, the families P(+/-) (the rows of the inverse
Kostka matrices, by forward substitution) and the duals Q(+/-) are built
from the factors on first use.
"""

import json
import os
import sys
from collections import namedtuple
from functools import cached_property

from . import linalg
from .combinatorics import ep_str, partition_similarity_classes
from .exact_arith import SeriesRing, TPoly, TRat
from .symfunc import level_for


class LabeledMatrix(namedtuple(
        "LabeledMatrix", "row_labels col_labels entries row_blocks col_blocks",
        defaults=(None, None))):
    """Matrix with row/column labels and an optional block structure: entries
    is a list of rows of TRat (CycNum in a raw coset table), and row_blocks
    and col_blocks, if given, the sizes of the similarity-class blocks."""

    __slots__ = ()

    def to_json(self, entry=lambda x: x.to_json()):
        """The matrix as plain JSON data, each entry as entry(x); the CLI
        passes the entries through unchanged for ``cli.jdump`` to write."""
        return {
            "rows": [str(l) for l in self.row_labels],
            "cols": [str(l) for l in self.col_labels],
            "row_blocks": self.row_blocks,
            "col_blocks": self.col_blocks,
            "entries": [[entry(x) for x in row] for row in self.entries],
        }

    def to_csv(self):
        lines = ["," + ",".join(f'"{l}"' for l in self.col_labels)]
        for label, row in zip(self.row_labels, self.entries):
            lines.append(f'"{label}",' + ",".join(f'"{x}"' for x in row))
        return "\n".join(lines) + "\n"

    def pretty(self):
        return pretty_table(self)


def pretty_table(mat):
    """Plain-text rendering with block separators, descending powers of t."""
    header = [""] + [str(l) for l in mat.col_labels]
    rows = [[str(l)] + [("." if x.is_zero() else str(x)) for x in row]
            for l, row in zip(mat.row_labels, mat.entries)]
    table = [header] + rows
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    col_cuts = set()
    if mat.col_blocks:
        acc = 1
        for size in mat.col_blocks[:-1]:
            acc += size
            col_cuts.add(acc)
    row_cuts = set()
    if mat.row_blocks:
        acc = 1
        for size in mat.row_blocks[:-1]:
            acc += size
            row_cuts.add(acc)
    out = []
    for ri, row in enumerate(table):
        if ri in row_cuts or ri == 1:
            out.append("-+-".join("-" * w for w in widths))
        line = []
        for ci, (cell, w) in enumerate(zip(row, widths)):
            sep = " | " if (ci in col_cuts or ci == 1) else "   "
            line.append((sep if ci else "") + cell.rjust(w))
        out.append("".join(line))
    return "\n".join(out)


class CharTable(namedtuple("CharTable", "level matrix")):
    """Character table of one wreath-product level, a LabeledMatrix: rows
    are character labels, columns are class labels, entries lie in Z[zeta]."""

    __slots__ = ()

    @property
    def partitions(self):
        return self.level.partitions

    def value(self, alpha, beta):
        lv = self.level
        return self.matrix.entries[lv.pindex[alpha]][lv.pindex[beta]]


def char_table(e, n):
    """Character table of G(e,1,n): chi[alpha](w_beta) is the coefficient
    of s_alpha in the power sum p_beta."""
    return level_char_table(level_for(e, n))


def level_char_table(level):
    from_ring = level.field.from_ring
    chi = [[TRat.from_cyc(from_ring(v)) for v in row] for row in level.char_table()]
    labels = [ep_str(alpha) for alpha in level.partitions]
    mat = LabeledMatrix(labels, labels, chi)
    return CharTable(level, mat)


def z_series(alpha, e=None):
    """Deformed centralizer order of the class of alpha in G(e,1,n)."""
    e = e if e is not None else len(alpha)
    lv = level_for(e, sum(sum(c) for c in alpha) or 1)
    return lv.z_series(alpha)


# ---------------------------------------------------------------------------
# Hall-Littlewood data


class HLData(namedtuple("HLData", "level r order classes a_values l d u gram_den")):
    """Both Hall-Littlewood families of one level at one symbol shift r,
    held as the block LDU factors of the Schur Gram matrix G along the
    symbol order: G = K+ diag(grams) conj(K-)^T.

    order: partitions in the canonical total order (class by class)
    classes: index ranges of the similarity classes
    a_values: one a-value per class
    l / d / u: the block LDU of the Gram numerators N = gram_den G, as
             ``certified_ldu`` returns it, every entry in coordinate lists
             (``TPoly.coords``): l = K+ and u = conj(K-)^T, block lower and
             upper unitriangular along ``order``, and d the within-class
             Gram numerators, one matrix per class
    gram_den: the TPoly denominator of ``Level.schur_gram``

    Built on first use:
    kp / km: the Kostka matrices K+/- = M(s, P+/-) as TRat
    grams: the within-class Gram matrices <P+_z, P-_z'> as canonical TRat
    sp / sm: Schur coordinates of P+ / P- (rows aligned with ``order``,
             columns aligned with level.partitions), the rows of the
             inverse Kostka matrices
    qp / qm: Schur coordinates of the dual families Q+ / Q-
    """

    # no __slots__ = (): the views built on first use live in __dict__

    def index(self, alpha):
        return self.order.index(alpha)

    def _poly(self, x):
        return TPoly.from_coords(self.level.field, x)

    @cached_property
    def kp(self):
        return [[TRat(self._poly(x), reduce=False) for x in row] for row in self.l]

    @cached_property
    def km(self):
        return [[TRat(self._poly(x).conjugate(), reduce=False) for x in col]
                for col in zip(*self.u)]

    @cached_property
    def grams(self):
        return [[[TRat(self._poly(x), self.gram_den) for x in row] for row in g] for g in self.d]

    def _schur_rows(self, kostka):
        inv = linalg.invert_unit_lower(kostka)
        perm = [self.order.index(alpha) for alpha in self.level.partitions]
        return [[row[j] for j in perm] for row in inv]

    @cached_property
    def sp(self):
        return self._schur_rows(self.kp)

    @cached_property
    def sm(self):
        return self._schur_rows(self.km)

    @cached_property
    def _gram_inverses(self):
        return [linalg.invert(gram) for gram in self.grams]

    @cached_property
    def qp(self):
        # Q+ = G^(-1) P+ within a class
        out = []
        for cls, ginv in zip(self.classes, self._gram_inverses):
            out += linalg.mat_mul(ginv, [self.sp[i] for i in cls])
        return out

    @cached_property
    def qm(self):
        # Q- = conj(G^(-T)) P- within a class
        out = []
        for cls, ginv in zip(self.classes, self._gram_inverses):
            out += linalg.mat_mul(
                [[x.conjugate() for x in col] for col in zip(*ginv)],
                [self.sm[i] for i in cls],
            )
        return out

    def certified(self):
        """Whether the lists held pass ``ldu_certified`` against freshly
        built Gram numerators N in ``order``: gram_den is their common
        denominator, l and u are block lower and upper unitriangular along
        ``classes``, and l diag(d) u = N, multiplied out exactly.  The
        computation ran the same check; this repeats it on the data held.
        It is the gate of a file read from the disk cache
        (``_load_cached_hl``) and a check of ``verify``."""
        nums, common = self.level.schur_gram(self.order)
        blocks = [len(c) for c in self.classes]
        return common == self.gram_den and ldu_certified(
            self.level.field, nums, blocks, self.l, self.d, self.u)


_HL_CACHE = {}

CACHE_ENV = "GREENREFL_CACHE"
CACHE_FORMAT = 4          # part of the cache file name; bump when the layout changes


def hl_data(level, r):
    """The HLData of (level, r), held for the process.  With GREENREFL_CACHE
    set, a file of the disk cache is handed out only if ``_load_cached_hl``
    accepts it, that is after the exact certificate; otherwise the data
    are computed (``_compute_hl``, certified as well) and the file written."""
    key = (level, r)
    if key not in _HL_CACHE:
        data = _load_cached_hl(level, r)
        if data is None:
            data = _compute_hl(level, r)
            _store_cached_hl(data)
        _HL_CACHE[key] = data
    return _HL_CACHE[key]


def _cache_path(level, r):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    name = (
        f"hl_v{CACHE_FORMAT}_E{level.E}_h{level.h}_e{level.ecols}_n{level.n}_r{r}.json"
    )
    return os.path.join(root, name)


def _load_cached_hl(level, r):
    """The cached data of (level, r), or None: when the file is missing or
    cannot be parsed, when an entry of its l, d, u or gram_den is not in
    the form of ``TPoly.coords`` (phi(e) lists of plain ints, none with a
    trailing zero), or when the data fail ``HLData.certified``, the exact
    certificate that computed data pass.  The file holds no order: the
    data take the symbol order of a fresh computation, and the
    certificate, run in that order along its blocks, accepts only the
    block LDU of N there, which is unique.  A refused file, unlike a
    missing one, is named on stderr."""
    path = _cache_path(level, r)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            raw = json.load(handle, parse_float=_not_an_int, parse_constant=_not_an_int)
        l, d, u, den = raw["l"], raw["d"], raw["u"], raw["gram_den"]
        entries = [den] + [x for mat in (l, u, *d) for row in mat for x in row]
        if all(_is_coords(x, level.field.degree) for x in entries):
            data = HLData(level, r, *_symbol_order(level, r), l, d, u,
                          TPoly.from_coords(level.field, den))
            if data.certified():
                return data
    except (OSError, ValueError, KeyError, TypeError, IndexError, RecursionError):
        pass
    print(f"greenrefl: refused the HL cache file {path}; recomputing it", file=sys.stderr)
    return None


def _not_an_int(text):
    raise ValueError(f"{text} is not an integer")


def _is_coords(x, degree):
    """Whether x is degree lists of plain ints (no bool), none with a
    trailing zero: the form of ``TPoly.coords``."""
    return type(x) is list and len(x) == degree and all(
        type(c) is list and (not c or c[-1] != 0) and all(type(v) is int for v in c)
        for c in x)


def _store_cached_hl(data):
    path = _cache_path(data.level, data.r)
    if path is None:
        return
    root = os.path.dirname(path)
    os.makedirs(root, exist_ok=True)
    raw = {"l": data.l, "d": data.d, "u": data.u, "gram_den": data.gram_den.coords()}
    import tempfile

    # a temporary file of its own, so that no other writer can replace it
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(raw, handle)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _symbol_order(level, r):
    """The canonical total order, its similarity classes as index ranges,
    and one a-value per class."""
    classes_parts, a_values = partition_similarity_classes(level.ecols, level.n, r)
    order = [alpha for cls in classes_parts for alpha in cls]
    classes, start = [], 0
    for cls in classes_parts:
        classes.append(list(range(start, start + len(cls))))
        start += len(cls)
    return order, classes, list(a_values)


def _compute_hl(level, r):
    """The block LDU of the Schur Gram matrix G along the symbol order.

    It factors the numerators N = L G of ``Level.schur_gram``: scaling a
    matrix by L leaves the triangular factors unchanged and scales the
    diagonal blocks by L, so those of N are the Gram numerators over L.
    N lies in Z[t], with no zeta: <s_a, s_b> = |W|^-1 sum_w chi_a(w)
    conj(chi_b(w)) / det(1 - t w) is a Molien series with natural-number
    coefficients, and L (``Level.degree_product``) is in Z[t], so
    N = L G is rational with integer coefficients.  The first precision is
    2 deg N + 2: at deg N + 1 the first certificate failed on every level
    tried."""
    order, classes, a_values = _symbol_order(level, r)
    nums, common = level.schur_gram(order)
    prec = 2 * (max(len(c) for row in nums for x in row for c in x) - 1) + 2
    l, d, u = certified_ldu(level.field, nums, [len(cls) for cls in classes], prec)
    return HLData(level, r, order, classes, a_values, l, d, u, common)


def certified_ldu(field, nums, blocks, prec):
    """The block LDU (l, d, u) of a square matrix N over Z[t] with
    N(0) = +-I, N and every factor in coordinate lists (``TPoly.coords``):
    the one elimination of the Hall-Littlewood data (``_compute_hl``) and
    of the Green functions of a coset (``gepn.CosetAlgebra._ldu_factors``).
    Its certificate ``ldu_certified`` is the only one of both: it also
    judges the factors that the Kostka assembly hands in where this
    elimination does not apply (``gepn.CosetAlgebra.assembly_ldu``).

    ``SeriesRing.encode`` raises ValueError, naming the coefficient, for an
    N that carries zeta.  N(0) = +-I makes every pivot block a unit modulo
    t, so the elimination runs in a ring of truncated power series with no
    gcd (``_series_ldu``).  Its factors are kept only if ``ldu_certified``
    passes, which makes them the block LDU of N, since that is unique.  The
    first attempt takes the caller's precision M = prec and B = 64 bits;
    after a failed certificate M and B double, and after three attempts
    ArithmeticError is raised.  ValueError when N(0) is not +-I."""
    zero = [0] * field.degree
    sign = _at_zero(nums[0][0])
    if sign[0] not in (1, -1) or any(sign[1:]) or any(
        _at_zero(x) != (sign if i == j else zero)
        for i, row in enumerate(nums)
        for j, x in enumerate(row)
    ):
        raise ValueError(
            "the matrix is not +-I at t = 0, so its pivot blocks need not be "
            "units modulo t"
        )
    bits = 64
    for _ in range(3):
        l, d, u = _series_ldu(field, nums, blocks, prec, bits)
        if ldu_certified(field, nums, blocks, l, d, u):
            return l, d, u
        prec, bits = 2 * prec, 2 * bits
    raise ArithmeticError(
        f"the block LDU failed its certificate at every precision up to "
        f"t^{prec // 2} with {bits // 2}-bit digits"
    )


def _at_zero(x):
    """The coordinates of the value at t = 0 of an entry in coordinate lists."""
    return [c[0] if c else 0 for c in x]


def _series_ldu(field, nums, blocks, prec, bits):
    """``linalg.block_ldu`` of the images of nums in the ring
    Z[t]/(t^prec) packed with B = bits (``SeriesRing``), read back in
    coordinate lists: exact when every factor has degree below prec and
    coefficients below 2^(bits-1) in absolute value, unchecked here."""
    ring = SeriesRing(field, prec, bits)
    l, d, u = linalg.block_ldu([[ring.encode(x) for x in row] for row in nums], blocks)
    l, u = ([[ring.decode(x) for x in row] for row in mat] for mat in (l, u))
    return l, [[[ring.decode(x) for x in row] for row in dk] for dk in d], u


def ldu_certified(field, nums, blocks, l, d, u):
    """Whether l diag(d) u = nums exactly, with l block lower and u block
    upper unitriangular (identity diagonal blocks) and d the diagonal
    blocks of the given sizes.  Then (l, d, u) is the block LDU of nums,
    which is unique.  The certificate of ``certified_ldu``, of
    ``HLData.certified`` and of the Kostka assembly's factors of a coset's
    Green functions.  Every entry is in the coordinate lists of ``field``
    (``TPoly.coords``: a TPoly is converted, and checked, where it is
    made, and a cache file's lists by ``_load_cached_hl``); the product is
    multiplied out on packed integers by
    ``linalg.PackedProduct``."""
    size = len(nums)
    if sum(blocks) != size or [len(dk) for dk in d] != list(blocks):
        return False
    if any(len(mat) != size or any(len(row) != size for row in mat) for mat in (nums, l, u)):
        return False
    if any(len(row) != len(dk) for dk in d for row in dk):
        return False
    block_of = [b for b, s in enumerate(blocks) for _ in range(s)]
    for i in range(size):
        for j in range(size):
            if block_of[i] == block_of[j]:
                for x in (l[i][j], u[i][j]):
                    unit = list(x[0]) == [1] and not any(x[1:])
                    if not (unit if i == j else not any(x)):
                        return False
            elif any((u if block_of[i] > block_of[j] else l)[i][j]):
                return False
    zero = [[] for _ in range(field.degree)]
    diag = [[zero] * size for _ in range(size)]
    start = 0
    for dk in d:
        for i, row in enumerate(dk):
            diag[start + i][start : start + len(dk)] = row
        start += len(dk)
    return linalg.PackedProduct(field, l, diag, u, nums).matches()


def kostka_matrix(level, r, sign):
    """K = M(s, P): rows/cols in the canonical symbol order; block lower
    triangular with identity diagonal blocks.  These are the factors of the
    Schur Gram matrix, read as they are."""
    data = hl_data(level, r)
    k = data.kp if sign > 0 else data.km
    labels = [ep_str(alpha) for alpha in data.order]
    blocks = [len(c) for c in data.classes]
    return LabeledMatrix(labels, labels, k, blocks, blocks)


def kostka(e, n, r, sign=-1):
    """Base Kostka matrix of G(e,1,n) for the given sign."""
    return kostka_matrix(level_for(e, n), r, sign)
