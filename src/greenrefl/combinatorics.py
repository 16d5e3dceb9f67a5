"""Multipartition combinatorics for the groups G(e,p,n) and their cosets.

An e-partition is a tuple of e integer partitions (tuples of weakly
decreasing positive integers) with total size n.  e-partitions index both
the irreducible characters and the conjugacy classes of G(e,1,n); their
orbits under the component shift ``theta`` index the characters of
G(e,p,n), and pairs (beta, b) index conjugacy classes of twisted cosets.

Symbols attach a fixed staircase to an e-partition; the induced a-function
and the grouping of symbols into similarity classes (equal entry multisets)
drive the block structure of every matrix in this package.
"""

from collections import namedtuple
from functools import lru_cache
from math import gcd


# ---------------------------------------------------------------------------
# plain partitions and e-partitions


@lru_cache(maxsize=None)
def partitions(n, max_part=None):
    """All partitions of n with parts <= max_part, descending lex order."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_epartitions(n, e):
    """All e-tuples of partitions of total size n, descending lex order."""
    if e <= 0:
        raise ValueError("need at least one component")

    def build(rem, comps_left):
        if comps_left == 1:
            return [(p,) for p in partitions(rem)]
        out = []
        for k in range(rem, -1, -1):
            for head in partitions(k):
                for tail in build(rem - k, comps_left - 1):
                    out.append((head,) + tail)
        return out

    return tuple(sorted(build(n, e), reverse=True))


def ep_length(alpha):
    return sum(len(comp) for comp in alpha)


def ep_str(alpha):
    """Compact label: (21;;1) means components (2,1), (), (1)."""
    comps = []
    for comp in alpha:
        if any(part >= 10 for part in comp):
            comps.append(",".join(str(p) for p in comp))
        else:
            comps.append("".join(str(p) for p in comp))
    return "(" + ";".join(comps) + ")"


def delta(alpha):
    """Sum over components of (component index) * (number of parts)."""
    return sum(k * len(comp) for k, comp in enumerate(alpha))


# ---------------------------------------------------------------------------
# group parameters


class GroupParams(namedtuple("GroupParams", "e p n q")):
    """Parameters (e, p, n) of G(e,p,n) together with a coset label q.

    q = 0 is the untwisted case.  A positive q must divide e, and e/q must
    be coprime to e/p so that the coset carries a character theory.
    """

    __slots__ = ()

    def __new__(cls, e, p, n, q=0):
        if e < 1 or p < 1 or n < 1:
            raise ValueError("e, p, n must be positive")
        if e % p != 0:
            raise ValueError(f"p={p} must divide e={e}")
        if q < 0:
            raise ValueError(f"q={q} must be nonnegative")
        if q:
            if e % q != 0:
                raise ValueError(f"q={q} must divide e={e} (or be 0)")
            if gcd(e // q, e // p) != 1:
                raise ValueError("e/q and e/p must be coprime")
        return super().__new__(cls, e, p, n, q)

    def _replace(self, **changes):
        # through __new__, so that a replaced field is checked too
        return GroupParams(**{**self._asdict(), **changes})

    __replace__ = _replace  # copy.replace (Python 3.13+)

    @property
    def d(self):
        return self.e // self.p

    @property
    def order(self):
        """|G(e,p,n)| = e^n n! / p."""
        fact = 1
        for i in range(2, self.n + 1):
            fact *= i
        return self.e ** self.n * fact // self.p

    def h_of(self, j):
        """Order of j in Z/pZ."""
        return self.p // gcd(j, self.p)

    def j1_of(self, j):
        return gcd(j, self.p)


# ---------------------------------------------------------------------------
# the shift operator theta and its orbits


def theta(alpha, p):
    """Cyclic shift of components by d = e/p positions."""
    e = len(alpha)
    if e % p != 0:
        raise ValueError("p must divide the number of components")
    d = e // p
    return tuple(alpha[(k - d) % e] for k in range(e))


def orbit_data(alpha, p):
    """(orbit listed from its canonical representative, orbit size).

    The canonical representative is the orbit element whose reversed
    component tuple is lexicographically least, i.e. the one packing its
    nonempty components (largest first) into the earliest positions; this
    matches the labels used in the reference tables.
    """
    orbit = [alpha]
    cur = theta(alpha, p)
    while cur != alpha:
        orbit.append(cur)
        cur = theta(cur, p)
    rep = min(orbit, key=lambda a: tuple(reversed(a)))
    i = orbit.index(rep)
    return tuple(orbit[i:] + orbit[:i]), len(orbit)


# ---------------------------------------------------------------------------
# the divide / truncate constructions on e-partitions


def divide_condition(alpha, j, params):
    """Whether every part of alpha is divisible by h and every nonempty
    component sits at an index divisible by h (h = order of j in Z/pZ)."""
    h = params.h_of(j)
    if h == 1:
        return True
    for k, comp in enumerate(alpha):
        if comp:
            if k % h != 0:
                return False
            if any(part % h != 0 for part in comp):
                return False
    return True


def alpha_divide(alpha, j, params):
    """Contract alpha into a (j1*d)-partition of n/h by dividing the parts
    (and the component indices) by h; None when the divisibility fails."""
    if not divide_condition(alpha, j, params):
        return None
    h = params.h_of(j)
    ncomp = params.j1_of(j) * params.d
    out = [()] * ncomp
    for k, comp in enumerate(alpha):
        if comp:
            out[k // h] = tuple(part // h for part in comp)
    return tuple(out)


def alpha_truncate(alpha, j, params):
    """First j1*d components of alpha; defined when the orbit size of alpha
    divides j (then the truncation is a (j1*d)-partition of n/h)."""
    c = orbit_data(alpha, params.p)[1]
    if j % c != 0:
        return None
    ncomp = params.j1_of(j) * params.d
    return tuple(alpha[:ncomp])


def f_invariant(beta, b, j, params):
    """Conjugation invariant of the coset element built from (beta, b)."""
    if divide_condition(beta, j, params):
        return (b * j) % params.p
    return 0


# ---------------------------------------------------------------------------
# character and class parameters


class CharParam(namedtuple("CharParam", "alpha phi")):
    """(orbit representative, character label of the orbit stabilizer)."""

    __slots__ = ()

    def label(self):
        return ep_str(self.alpha) + "'" * self.phi

    def to_json(self):
        return {"alpha": [list(c) for c in self.alpha], "phi": self.phi}


class ClassParam(namedtuple("ClassParam", "beta b")):
    """(e-partition, twist residue) labelling a conjugacy class of a coset."""

    __slots__ = ()

    def label(self):
        return f"{ep_str(self.beta)},b={self.b}"


def enumerate_char_params(params):
    """All (alpha, phi) valid for the coset q, in the canonical total order
    (similarity classes of decreasing a-value, see ``similarity_order``)."""
    return [z for cls in similarity_order(params).classes for z in cls]


def enumerate_class_params(params):
    """Canonical (beta, b) class representatives for the coset q.

    beta runs over e-partitions with delta(beta) = q mod p; twists b are
    deduplicated by their full invariant vector, keeping the smallest b.
    """
    out = []
    for beta in enumerate_epartitions(params.n, params.e):
        if delta(beta) % params.p != params.q % params.p:
            continue
        seen = {}
        for b in range(params.e):
            key = tuple(f_invariant(beta, b, j, params) for j in range(params.p))
            if key not in seen:
                seen[key] = b
                out.append(ClassParam(beta, b))
    return out


def class_multiplicity(beta, params):
    """Number of coset classes sharing the underlying e-partition beta."""
    seen = set()
    for b in range(params.e):
        seen.add(tuple(f_invariant(beta, b, j, params) for j in range(params.p)))
    return len(seen)


# ---------------------------------------------------------------------------
# symbols, a-function, similarity classes


class Symbol(namedtuple("Symbol", "rows r m")):
    """An e-partition plus the staircase with rows ((m_k-1)r, ..., r, 0)."""

    __slots__ = ()

    def entries(self):
        return tuple(sorted((x for row in self.rows for x in row), reverse=True))

    def shift(self):
        """Equivalent symbol with every row one entry longer."""
        rows = tuple(
            tuple(x + self.r for x in row) + (0,) for row in self.rows
        )
        return Symbol(rows, self.r, tuple(mk + 1 for mk in self.m))


def staircase(m, r):
    return tuple(tuple(range((mk - 1) * r, -1, -r)) for mk in m)


def make_symbol(alpha, m, r):
    if r < 1:
        raise ValueError("symbol shift must be positive")
    if len(m) != len(alpha):
        raise ValueError("one length per component required")
    rows = []
    for comp, mk in zip(alpha, m):
        if len(comp) > mk:
            raise ValueError(f"component {comp} has more than {mk} parts")
        padded = tuple(comp) + (0,) * (mk - len(comp))
        rows.append(tuple(part + (mk - 1 - i) * r for i, part in enumerate(padded)))
    return Symbol(tuple(rows), r, tuple(m))


def _pair_min_sum(entries):
    # sum over unordered pairs of distinct positions of min(entry, entry'),
    # computed as sum_j (j-1) * (j-th largest entry)
    return sum(j * x for j, x in enumerate(sorted(entries, reverse=True)))


def a_value(sym):
    """a-function: pairwise-minimum statistic normalized by the staircase."""
    base = tuple(x for row in staircase(sym.m, sym.r) for x in row)
    return _pair_min_sum(sym.entries()) - _pair_min_sum(base)


class SimilarityPartition(namedtuple("SimilarityPartition", "classes a_values")):
    """Similarity classes listed in the canonical total order: classes is a
    tuple of tuples of CharParam, a_values one natural number per class."""

    __slots__ = ()


def _class_sort_key(multiset, a):
    # larger a first; ties by ascending lex on the (descending) entry multiset
    return (-a, multiset)


def partition_similarity_classes(e, n, r):
    """Similarity classes of all e-partitions of n, canonically ordered.

    Returns (classes, a_values): classes are tuples of e-partitions sorted
    descending, classes sorted by decreasing a-value with a deterministic
    tie-break on entry multisets.
    """
    m = (max(n, 1),) * e
    groups = {}
    for alpha in enumerate_epartitions(n, e):
        sym = make_symbol(alpha, m, r)
        key = sym.entries()
        groups.setdefault(key, []).append(alpha)
    keyed = []
    for key, members in groups.items():
        a = _pair_min_sum(key) - _pair_min_sum(
            tuple(x for row in staircase(m, r) for x in row)
        )
        keyed.append((_class_sort_key(key, a), a, tuple(sorted(members, reverse=True))))
    keyed.sort(key=lambda item: item[0])
    classes = tuple(item[2] for item in keyed)
    a_values = tuple(item[1] for item in keyed)
    return classes, a_values


def similarity_order(params, r=2):
    """Valid character parameters of the coset grouped into similarity
    classes and sorted: decreasing a-value, deterministic tie-breaks, and
    within a class by descending representative then character label."""
    base_classes, base_a = partition_similarity_classes(params.e, params.n, r)
    classes = []
    a_values = []
    for cls, a in zip(base_classes, base_a):
        members = []
        seen = set()
        for alpha in cls:
            rep, c = (lambda od: (od[0][0], od[1]))(orbit_data(alpha, params.p))
            if rep in seen or rep != alpha:
                continue
            seen.add(rep)
            if (params.q * c) % params.p != 0:
                continue
            for phi in range(params.p // c):
                members.append(CharParam(rep, phi))
        if members:
            classes.append(tuple(members))
            a_values.append(a)
    return SimilarityPartition(tuple(classes), tuple(a_values))
