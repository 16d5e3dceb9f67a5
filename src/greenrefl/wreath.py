"""Character tables, Hall-Littlewood functions and Kostka matrices for the
wreath-product level (one color structure, all of G(e,1,n)).

The two Hall-Littlewood families P+/P- attached to symbols with a fixed
shift r are built by induction along the canonical total order on
similarity classes (largest a-value first):

    P(+/-)_z = s_z + corrections from strictly earlier classes,

where the correction coefficients against each earlier class solve the
linear system forcing cross-orthogonality <P+_z, P-_z'> = 0 for z' in that
class.  The dual families Q+/Q- come from inverting the within-class Gram
matrices.  The Kostka matrix K(+/-) = M(s, P) is the inverse of the
unitriangular matrix collecting the P's in Schur coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .combinatorics import ep_str, partition_similarity_classes
from .exact_arith import TRat
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

    def transpose(self):
        return LabeledMatrix(
            list(self.col_labels),
            list(self.row_labels),
            [list(col) for col in zip(*self.entries)],
            self.col_blocks,
            self.row_blocks,
        )

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


def _dot_pair(u, v, zero):
    acc = zero
    for x, y in zip(u, v):
        if not x.is_zero() and not y.is_zero():
            acc = acc + x * y
    return acc


_HL_CACHE = {}

CACHE_ENV = "GREENREFL_CACHE"


def hl_data(level, r):
    if level.space.m != (max(level.n, 1),) * level.ecols:
        raise ValueError(
            f"hl_data needs the default variable counts m; got m={level.space.m}"
        )
    key = (level, r)
    if key not in _HL_CACHE:
        data = _load_cached_hl(level, r)
        if data is None:
            data = _compute_hl(level, r)
            _store_cached_hl(data)
        _HL_CACHE[key] = data
    return _HL_CACHE[key]


def _cache_path(level, r):
    import os

    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    name = f"hl_E{level.E}_h{level.h}_e{level.ecols}_n{level.n}_r{r}.json"
    return os.path.join(root, name)


def _load_cached_hl(level, r):
    import json
    import os

    path = _cache_path(level, r)
    if path is None or not os.path.exists(path):
        return None
    with open(path) as handle:
        raw = json.load(handle)
    order = [tuple(tuple(c) for c in alpha) for alpha in raw["order"]]

    def rows(key):
        return [[TRat.from_json(v) for v in row] for row in raw[key]]

    return HLData(
        level=level,
        r=r,
        order=order,
        classes=[list(c) for c in raw["classes"]],
        a_values=list(raw["a_values"]),
        sp=rows("sp"),
        sm=rows("sm"),
        qp=rows("qp"),
        qm=rows("qm"),
    )


def _store_cached_hl(data):
    import json
    import os

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


def _compute_hl(level, r):
    classes_parts, a_values = partition_similarity_classes(level.ecols, level.n, r)
    order = [alpha for cls in classes_parts for alpha in cls]
    class_ranges = []
    pos = 0
    for cls in classes_parts:
        class_ranges.append(list(range(pos, pos + len(cls))))
        pos += len(cls)

    size = level.size
    zero = level.zero_rat
    one = level.one
    zser = [level.z_series(beta) for beta in level.partitions]
    s_in_p = level.s_in_p()

    def unit_svec(alpha):
        v = [zero] * size
        v[level.pindex[alpha]] = one
        return v

    sp, sm, pp, pm = [], [], [], []
    # pairing helpers per finished function:
    #   xv[g] = pp_z[g] * z_g(t)             so <P+_z, f> = sum xv conj(f_p)
    #   yvec_z[g] = conj(pm_z[g]) * z_g(t)   so <f, P-_z> = sum f_p yvec_z
    #   s_pair_minus_z[b] = <s_b, P-_z>,  s_pair_plus_z[b] = <P+_z, s_b>
    yvec = []
    s_pair_minus, s_pair_plus = [], []
    grams = []
    for ci, cls in enumerate(class_ranges):
        for zi in cls:
            alpha = order[zi]
            s_plus = unit_svec(alpha)
            s_minus = unit_svec(alpha)
            p_plus = list(level.p_coords_of_s_vector(s_plus))
            p_minus = list(p_plus)
            aidx = level.pindex[alpha]
            # corrections from every strictly earlier class, one linear
            # system per class (cross terms between distinct earlier
            # classes vanish by the already-established orthogonality)
            for cj in range(ci):
                prev = class_ranges[cj]
                gram = grams[cj]
                k = len(prev)
                # <P+_z, P-_z'> = 0: solve sum_i d_i gram[i][j] = -<s_z, P-_j>
                rhs_p = [[-s_pair_minus[prev[j]][aidx]] for j in range(k)]
                a_mat = [[gram[i][j] for i in range(k)] for j in range(k)]
                d_plus = linalg.solve(a_mat, rhs_p)
                # <P+_z', P-_z> = 0: solve sum_j gram[i][j] conj(d'_j) = -<P+_i, s_z>
                rhs_m = [[-s_pair_plus[prev[i]][aidx]] for i in range(k)]
                d_minus_conj = linalg.solve(gram, rhs_m)
                for idx, zj in enumerate(prev):
                    dp = d_plus[idx][0]
                    if not dp.is_zero():
                        for c in range(size):
                            if not sp[zj][c].is_zero():
                                s_plus[c] = s_plus[c] + dp * sp[zj][c]
                            if not pp[zj][c].is_zero():
                                p_plus[c] = p_plus[c] + dp * pp[zj][c]
                    dm = d_minus_conj[idx][0].conjugate()
                    if not dm.is_zero():
                        for c in range(size):
                            if not sm[zj][c].is_zero():
                                s_minus[c] = s_minus[c] + dm * sm[zj][c]
                            if not pm[zj][c].is_zero():
                                p_minus[c] = p_minus[c] + dm * pm[zj][c]
            sp.append(s_plus)
            sm.append(s_minus)
            pp.append(p_plus)
            pm.append(p_minus)
            xv = [p_plus[g] * zser[g] for g in range(size)]
            yv = [p_minus[g].conjugate() * zser[g] for g in range(size)]
            yvec.append(yv)
            # <s_b, P-_z> = sum_g s_in_p[b][g] yv[g];  <P+_z, s_b> similarly
            pair_m = []
            pair_p = []
            for b in range(size):
                accm = zero
                accp = zero
                row = s_in_p[b]
                for g in range(size):
                    c = row[g]
                    if c.is_zero():
                        continue
                    if not yv[g].is_zero():
                        accm = accm + yv[g].scale_cyc(c)
                    if not xv[g].is_zero():
                        accp = accp + xv[g].scale_cyc(c.conjugate())
                pair_m.append(accm)
                pair_p.append(accp)
            s_pair_minus.append(pair_m)
            s_pair_plus.append(pair_p)
        # Gram matrix of the finished class
        gram = [
            [_dot_pair(pp[zi], yvec[zj], zero) for zj in cls] for zi in cls
        ]
        grams.append(gram)

    # dual families: Q+_z = sum G^{-1}[z,:] P+, Q-_z from the conjugate
    qp = [None] * len(order)
    qm = [None] * len(order)
    for cls, gram in zip(class_ranges, grams):
        ginv = linalg.invert(gram)
        k = len(cls)
        for a in range(k):
            vp = [zero] * size
            vm = [zero] * size
            for b in range(k):
                cp = ginv[a][b]
                if not cp.is_zero():
                    for c in range(size):
                        if not sp[cls[b]][c].is_zero():
                            vp[c] = vp[c] + cp * sp[cls[b]][c]
                # Q-: coefficients conj(G^{-T})
                cm = ginv[b][a].conjugate()
                if not cm.is_zero():
                    for c in range(size):
                        if not sm[cls[b]][c].is_zero():
                            vm[c] = vm[c] + cm * sm[cls[b]][c]
            qp[cls[a]] = vp
            qm[cls[a]] = vm

    return HLData(
        level=level,
        r=r,
        order=order,
        classes=class_ranges,
        a_values=list(a_values),
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
    k = linalg.invert(u)
    labels = [ep_str(alpha) for alpha in data.order]
    blocks = [len(c) for c in data.classes]
    return LabeledMatrix(labels, labels, k, blocks, blocks)


def kostka(e, n, r, sign=-1):
    """Base Kostka matrix of G(e,1,n) for the given sign."""
    return kostka_matrix(level_for(e, n), r, sign)
