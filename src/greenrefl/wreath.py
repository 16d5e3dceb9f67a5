"""Character tables, Hall-Littlewood functions and Kostka matrices for the
wreath-product level (one color structure, all of G(e,1,n)).

The two Hall-Littlewood families P+/P- attached to symbols with a fixed
shift r are pinned down by two conditions along the canonical total order
on similarity classes (largest a-value first):

    P(+/-)_z = s_z + multiples of s_z' for z' in strictly earlier classes,
    <P+_z, P-_z'> = 0 when z and z' lie in different classes.

Together these make them the unique block LDU of the Schur Gram matrix
G = (<s_a, s_b>) over the class blocks (the Lusztig-Shoji algorithm):
e G f = diag(D), the rows of e are P+, the conjugated columns of f are P-,
and D holds the within-class Gram matrices <P+_z, P-_z'>.  The elimination
runs on the polynomial numerators N = L G over the common denominator L
of the z-series: e N f = diag(D_N) with the same e and f, and D = D_N / L.
The dual families Q+/Q- come from inverting those blocks.  The Kostka
matrix K(+/-) = M(s, P) is the inverse of the unit lower-triangular
matrix collecting the P's in Schur coordinates, by forward substitution.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import linalg
from .combinatorics import ep_str, partition_similarity_classes
from .exact_arith import TPoly, TRat
from .symfunc import Level, level_for


@dataclass
class LabeledMatrix:
    """Matrix with row/column labels and an optional block structure."""

    row_labels: list
    col_labels: list
    entries: list                 # list of rows of TRat
    row_blocks: list = None       # sizes of the similarity-class blocks
    col_blocks: list = None

    def entry(self, i, j):
        return self.entries[i][j]

    def to_json(self):
        return {
            "rows": [str(l) for l in self.row_labels],
            "cols": [str(l) for l in self.col_labels],
            "row_blocks": self.row_blocks,
            "col_blocks": self.col_blocks,
            "entries": [[x.to_json() for x in row] for row in self.entries],
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


@dataclass
class CharTable:
    """Character table of one wreath-product level: rows are character
    labels, columns are class labels, entries lie in Z[zeta]."""

    level: Level
    matrix: LabeledMatrix

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
    chi = level.char_table()
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


@dataclass
class HLData:
    """Both Hall-Littlewood families of one level at one symbol shift r.

    order: partitions in the canonical total order (class by class)
    classes: index ranges of the similarity classes
    a_values: one a-value per class
    sp / sm: Schur coordinates of P+ / P- (rows aligned with ``order``,
             columns aligned with level.partitions)
    qp / qm: Schur coordinates of the dual families Q+ / Q-
    """

    level: Level
    r: int
    order: list
    classes: list
    a_values: list
    sp: list
    sm: list
    qp: list
    qm: list

    def index(self, alpha):
        return self.order.index(alpha)


_HL_CACHE = {}

CACHE_ENV = "GREENREFL_CACHE"
CACHE_FORMAT = 2          # part of the cache file name; bump when the layout changes


def hl_data(level, r):
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
    """The cached data of (level, r); None when the file is missing, cannot
    be parsed, or fails ``_is_valid_hl``."""
    path = _cache_path(level, r)
    if path is None or not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            raw = json.load(handle)

        def rows(key):
            return [[TRat.from_json(v) for v in row] for row in raw[key]]

        data = HLData(
            level=level,
            r=r,
            order=[tuple(tuple(c) for c in alpha) for alpha in raw["order"]],
            classes=[list(c) for c in raw["classes"]],
            a_values=list(raw["a_values"]),
            sp=rows("sp"),
            sm=rows("sm"),
            qp=rows("qp"),
            qm=rows("qm"),
        )
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        return None
    return data if _is_valid_hl(data) else None


def _is_valid_hl(data):
    """Same symbol order as a fresh computation, square rows of the right
    size, and P+/P- block unitriangular in that order."""
    level = data.level
    order, classes, a_values = _symbol_order(level, data.r)
    if (data.order, data.classes, data.a_values) != (order, classes, a_values):
        return False
    size = len(order)
    for rows in (data.sp, data.sm, data.qp, data.qm):
        if len(rows) != size or any(len(row) != size for row in rows):
            return False
    class_of = [ci for ci, cls in enumerate(classes) for _ in cls]
    position = [order.index(alpha) for alpha in level.partitions]
    for rows in (data.sp, data.sm):
        for i, row in enumerate(rows):
            for v, j in zip(row, position):
                if j == i:
                    if v != level.one:
                        return False
                elif class_of[j] >= class_of[i] and not v.is_zero():
                    return False
    return True


def _store_cached_hl(data):
    path = _cache_path(data.level, data.r)
    if path is None:
        return
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    raw = {
        "order": [[list(c) for c in alpha] for alpha in data.order],
        "classes": [list(c) for c in data.classes],
        "a_values": list(data.a_values),
        "sp": [[v.to_json() for v in row] for row in data.sp],
        "sm": [[v.to_json() for v in row] for row in data.sm],
        "qp": [[v.to_json() for v in row] for row in data.qp],
        "qm": [[v.to_json() for v in row] for row in data.qm],
    }
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(raw, handle)
    os.replace(tmp, path)


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
    order, class_ranges, _ = _symbol_order(level, r)
    return _hl_from_ldu(
        level, r, _schur_ldu(level, order, [len(cls) for cls in class_ranges])
    )


def _schur_ldu(level, order, blocks):
    """Block LDU (e, grams, f) of the Schur Gram matrix G along ``order``.

    It eliminates on the numerators N = L G of ``Level.schur_gram``, which
    are polynomials: scaling a matrix by L leaves e and f unchanged and
    scales its diagonal blocks by L, so only the entries of the diagonal
    blocks D_N are divided by L, and no intermediate carries L."""
    nums, common = level.schur_gram(order)
    e, d_nums, f = linalg.block_ldu(
        [[TRat(x, reduce=False) for x in row] for row in nums], blocks
    )
    inv_common = TRat(TPoly.constant(level.field.one), common)
    grams = [[[x * inv_common for x in row] for row in dk] for dk in d_nums]
    return e, grams, f


def _hl_from_ldu(level, r, ldu):
    """The HL data of (level, r) from the block LDU e G f = diag(grams)
    along the symbol order."""
    order, class_ranges, a_values = _symbol_order(level, r)
    # the rows of e are P+ and the conjugated columns of f are P-, in Schur
    # coordinates along ``order``
    e, grams, f = ldu
    perm = [order.index(alpha) for alpha in level.partitions]
    sp = [[row[j] for j in perm] for row in e]
    sm = [[f[j][i].conjugate() for j in perm] for i in range(len(order))]

    # dual families: Q+ = G^(-1) P+ and Q- = conj(G^(-T)) P- within a class
    qp, qm = [], []
    for cls, gram in zip(class_ranges, grams):
        ginv = linalg.invert(gram)
        qp += linalg.mat_mul(ginv, [sp[i] for i in cls])
        qm += linalg.mat_mul(
            [[x.conjugate() for x in col] for col in zip(*ginv)], [sm[i] for i in cls]
        )

    return HLData(
        level=level,
        r=r,
        order=order,
        classes=class_ranges,
        a_values=a_values,
        sp=sp,
        sm=sm,
        qp=qp,
        qm=qm,
    )


@dataclass
class HLBasis:
    """Public view of one sign's Hall-Littlewood family."""

    sign: int
    r: int
    functions: dict      # partition -> dict partition -> TRat (Schur coords of P)
    duals: dict          # same for Q

    def p_function(self, alpha):
        return self.functions[alpha]

    def q_function(self, alpha):
        return self.duals[alpha]


def hall_littlewood(e, n, r, sign=+1):
    """The P/Q family of G(e,1,n) for one sign, in Schur coordinates."""
    level = level_for(e, n)
    data = hl_data(level, r)
    s_rows = data.sp if sign > 0 else data.sm
    q_rows = data.qp if sign > 0 else data.qm
    funcs, duals = {}, {}
    for i, alpha in enumerate(data.order):
        funcs[alpha] = {
            level.partitions[c]: v for c, v in enumerate(s_rows[i]) if not v.is_zero()
        }
        duals[alpha] = {
            level.partitions[c]: v for c, v in enumerate(q_rows[i]) if not v.is_zero()
        }
    return HLBasis(1 if sign > 0 else -1, r, funcs, duals)


def kostka_matrix(level, r, sign):
    """K = M(s, P): rows/cols in the canonical symbol order; block lower
    triangular with identity diagonal blocks."""
    data = hl_data(level, r)
    size = len(data.order)
    # U[z][beta-coordinate] -> reorder coordinate columns into symbol order
    perm = [level.pindex[alpha] for alpha in data.order]
    rows = data.sp if sign > 0 else data.sm
    u = [[rows[i][perm[j]] for j in range(size)] for i in range(size)]
    k = linalg.invert_unit_lower(u)
    labels = [ep_str(alpha) for alpha in data.order]
    blocks = [len(c) for c in data.classes]
    return LabeledMatrix(labels, labels, k, blocks, blocks)


def kostka(e, n, r, sign=-1):
    """Base Kostka matrix of G(e,1,n) for the given sign."""
    return kostka_matrix(level_for(e, n), r, sign)
