"""The Schur Gram matrix of a level: the reference of the Hall-Littlewood
data, which the library reads off the block LDU of OmegaPrime of the coset
G(e',1,n') and never builds this matrix for.

A Schur function is held by its power-sum coordinates, the row of the
level's character table over the z_beta (``s_in_p``).  The scalar product
of two such vectors is the z-series sum term by term (``scalar_from_p``),
one TRat per class; the Gram matrix of the Schur rows is the same class
sum packed into integers over the degree product
L = prod_(i<=n) (t^(e' i) - 1) (``schur_gram``), by the class-sum kernel
of the library.  ``test_symfunc`` holds the two against each other.
"""

from functools import cache

from greenrefl.combinatorics import ep_length
from greenrefl.exact_arith import TPoly, TRat
from greenrefl.symfunc import _rotate, gram_numerators, ring_weight

from substitutions import subst_power


def zero_rat(lv):
    """The zero of the rational functions over the field of lv."""
    return TRat(TPoly(lv.field, ()), reduce=False)


@cache
def s_in_p(lv):
    """Rows: power-sum coordinates of the Schur functions (constants),
    chi[alpha][beta] / z_beta, conjugated."""
    # conjugation sends zeta_E^m to zeta_E^(-m)
    z = [lv.z_int(beta) for beta in lv.partitions]
    return [
        [lv.field.from_ring(v[:1] + v[:0:-1], zb) for v, zb in zip(row, z)]
        for row in lv.char_table()
    ]


def degree_product(lv):
    """L = prod_(i<=n) (t^(ecols i) - 1), as ints ascending in t: by
    Springer's theorem the lcm of the det(t id - w) over G(ecols,1,n)."""
    out = [1]
    for d in range(lv.ecols, lv.ecols * lv.n + 1, lv.ecols):
        out = [x - y for x, y in zip([0] * d + out, out + [0] * d)]
    return out


def schur_gram(lv, order):
    """(N, L) with <s_a, s_b> = N[a][b] / L for a, b in ``order``, N in
    coordinate lists: the class sum of the ``s_in_p`` rows against the
    z-series times L = ``degree_product``.  As
    1 - zeta^k t^r = -zeta^k (t^r - zeta^(-k)), the weight of beta is
    +-zeta^(-sum_k k #parts_k) z_beta L over det(t id - w) for the colours
    of beta reversed (``ring_weight``); a remainder raises ArithmeticError."""
    rows_all = s_in_p(lv)
    rows = [rows_all[lv.pindex[alpha]] for alpha in order]
    big_l = degree_product(lv)
    weights = []
    for beta in lv.partitions:
        m = -lv.h * sum(k * len(comp) for k, comp in enumerate(beta)) % lv.E
        unit = _rotate([(-1) ** ep_length(beta) * lv.z_int(beta)] + [0] * (lv.E - 1), m)
        ints = ring_weight(lv, [[c * x for x in unit] for c in big_l], beta[:1] + beta[:0:-1])
        if ints is None:
            raise ArithmeticError(f"the weight of class {beta} leaves a remainder over L")
        weights.append((1, ints))
    return gram_numerators(rows, rows, weights, TPoly.from_coords(lv.field, [big_l]))


def scalar_from_p(lv, u, v, subst=1):
    """<f, g> from power-sum coordinate vectors; z-series in t^subst."""
    acc = zero_rat(lv)
    for ug, vg, beta in zip(u, v, lv.partitions):
        if ug.is_zero() or vg.is_zero():
            continue
        acc = acc + ug * vg.conjugate() * subst_power(lv.z_series(beta), subst)
    return acc
