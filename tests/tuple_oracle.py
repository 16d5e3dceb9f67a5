"""The tuple Schur and Hall-Littlewood functions of a twisted coset, by the
paper's definition.

This is the test-side reference for the Kostka matrices of
``greenrefl.gepn``.  The library reads them off the block assembly out of
sub-level Kostka matrices (``CosetAlgebra.kostka_assembled``) or off the
block LDU of OmegaPrime; here they are the transition matrix between the
tuple Schur and the tuple Hall-Littlewood functions, both stacked in Schur
coordinates and solved for exactly (``kostka_direct``).

A tuple function of the coset sigma^q W is a p-tuple: component j lives on
the sub-level G(e',1,n') at j, with zeta^h and t^h, and is kept as its
Schur coordinate vector over the partitions of that sub-level.  Component j
of the tuple function of z = (alpha, phi) sums zeta^k B_j(theta^i(alpha)
truncated at j) over the orbit terms (j, i, a, k) of z
(``CosetAlgebra._orbit_terms``), which carry the coset phase.  Every
function here takes the ``CosetAlgebra`` it works in.
"""

from dataclasses import dataclass

from greenrefl import linalg
from greenrefl.combinatorics import GroupParams
from greenrefl.wreath import hl_data

from substitutions import subst_power


@dataclass(frozen=True)
class TupleFun:
    """A p-tuple of sub-level symmetric functions in coordinate form.

    comps maps a component index j to its Schur coordinates, a vector over
    the partitions of the sub-level at j.
    """

    params: GroupParams
    comps: dict

    def component(self, j):
        return self.comps.get(j)


def orbit_tuple(alg, z, entries):
    """Components sum zeta^k B_j(theta^i(alpha) truncated at j) over the
    orbit terms (j, i, a, k) of z; entries(j, a) lists the Schur
    coordinates of B_j of the partition with index a as (index,
    coefficient) pairs."""
    comps = {}
    for j, _, a, k in alg._orbit_terms(z):
        vec = comps.setdefault(j, [alg.zero] * alg.levels[j].size)
        w = alg.field.zeta(k)
        for idx, val in entries(j, a):
            vec[idx] = vec[idx] + val.scale_cyc(w)
    return TupleFun(alg.params, comps)


def tuple_schur(alg, z):
    return orbit_tuple(alg, z, lambda j, a: [(a, alg.one)])


def tuple_hall_littlewood(alg, z, sign):
    """Assembled from sub-level Hall-Littlewood functions, with the
    deformation parameter t^h in component j."""

    def entries(j, a):
        level = alg.levels[j]
        data = hl_data(level, alg.r)
        row = (data.sp if sign > 0 else data.sm)[data.index(level.partitions[a])]
        h = alg.h_of[j]
        return [
            (idx, subst_power(val, h))
            for idx, val in enumerate(row)
            if not val.is_zero()
        ]

    return orbit_tuple(alg, z, entries)


def stack_schur(alg, fun):
    """The Schur coordinates of every component, in component order."""
    out = []
    for j in sorted(alg.levels):
        comp = fun.component(j)
        out.extend([alg.zero] * alg.levels[j].size if comp is None else comp)
    return out


def kostka_direct(alg, sign):
    """M(Bs, BP(sign)) by the stacked linear solve: rows and columns are
    the characters, in the order of ``alg.chars``."""
    basis_rows = [stack_schur(alg, tuple_hall_littlewood(alg, z, sign)) for z in alg.chars]
    s_rows = [stack_schur(alg, tuple_schur(alg, z)) for z in alg.chars]
    a_mat = [list(col) for col in zip(*basis_rows)]
    b_mat = [list(col) for col in zip(*s_rows)]
    kt = linalg.solve(a_mat, b_mat)
    return [list(row) for row in zip(*kt)]
