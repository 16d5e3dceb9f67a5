import pytest

from greenrefl import oracle
from greenrefl.combinatorics import (
    CharParam,
    GroupParams,
    enumerate_char_params,
    enumerate_class_params,
    orbit_data,
)
from greenrefl.exact_arith import CycField
from greenrefl.gepn import CosetTable, coset_char_table
from greenrefl.oracle import (
    BruteForceGroup,
    brute_force_oracle,
    e_inv,
    e_mul,
)

P = lambda *comps: tuple(tuple(c) for c in comps)


def table_problems(table):
    """The brute-force verdict on a coset table of W (q = 0)."""
    group = BruteForceGroup(table.params)
    return group.table_problems(table.rows, table.cols, table.entries)


def conjugated(table):
    """The table with every value complex-conjugated, labels kept."""
    entries = [[v.conjugate() for v in row] for row in table.entries]
    return CosetTable(table.params, table.rows, table.cols, entries)


def phi_swapped(table):
    """The table with the rows of (alpha, phi) and (alpha, -phi) swapped."""
    p = table.params.p
    index = {z: i for i, z in enumerate(table.rows)}
    entries = [
        table.entries[index[CharParam(z.alpha, -z.phi % (p // orbit_data(z.alpha, p)[1]))]]
        for z in table.rows
    ]
    return CosetTable(table.params, table.rows, table.cols, entries)


def test_element_arithmetic():
    e = 3
    w = ((1, 0, 2), (1, 2, 0))
    wi = e_inv(w, e)
    n = 3
    ident = (tuple(range(n)), (0,) * n)
    assert e_mul(w, wi, e) == ident
    assert e_mul(wi, w, e) == ident


def test_group_orders():
    assert BruteForceGroup(GroupParams(3, 3, 3)).order == 54
    assert BruteForceGroup(GroupParams(2, 2, 2)).order == 4
    assert BruteForceGroup(GroupParams(4, 4, 3)).order == 96
    assert BruteForceGroup(GroupParams(2, 1, 3)).order == 48


def test_class_counts_match_parameters():
    for e, p, n, q in [
        (2, 2, 2, 0), (2, 2, 2, 1), (2, 2, 3, 0), (2, 2, 3, 1),
        (3, 3, 2, 0), (3, 3, 3, 0), (4, 4, 2, 0), (4, 2, 2, 0),
        (1, 1, 3, 0), (2, 1, 2, 0),
    ]:
        params = GroupParams(e, p, n, q)
        group = BruteForceGroup(params)
        orbits = group.coset_orbits(q)
        assert len(orbits) == len(enumerate_class_params(params)), (e, p, n, q)
        assert len(orbits) == len(enumerate_char_params(params)), (e, p, n, q)


def test_class_param_elements_exhaust_orbits():
    # the canonical (beta, b) representatives hit each W-orbit exactly once
    for e, p, n, q in [(2, 2, 2, 0), (2, 2, 3, 1), (3, 3, 3, 0), (4, 2, 2, 0)]:
        params = GroupParams(e, p, n, q)
        group = BruteForceGroup(params)
        seen = set()
        for xi in enumerate_class_params(params):
            idx = group.class_index_of(
                group.element_for_class_param(xi.beta, xi.b), q
            )
            assert idx not in seen, (e, p, n, q, xi)
            seen.add(idx)
        assert len(seen) == len(group.coset_orbits(q))


def test_s3_character_table():
    group = BruteForceGroup(GroupParams(1, 1, 3))
    table = group.character_table()
    classes = group.conjugacy_classes()
    ident = group.class_index_of(group.identity)
    rows = set()
    for row in table:
        rows.add(tuple(str(v) for v in row))
    degrees = sorted(int(str(row[ident])) for row in table)
    assert degrees == [1, 1, 2]
    sizes = [len(c) for c in classes]
    assert sorted(sizes) == [1, 2, 3]


def test_character_table_orthogonality():
    for e, p, n in [(1, 1, 3), (2, 2, 2), (3, 3, 2), (3, 3, 3), (2, 1, 2)]:
        params = GroupParams(e, p, n)
        group = BruteForceGroup(params)
        table = group.character_table()
        classes = group.conjugacy_classes()
        k = len(classes)
        field = table[0][0].field
        # row orthogonality: sum_j |C_j| chi(g_j) conj(chi'(g_j)) = |G| delta
        for a in range(k):
            for b in range(k):
                acc = field.zero
                for j in range(k):
                    acc = acc + table[a][j] * table[b][j].conjugate() * len(classes[j])
                want = field.from_rational(group.order) if a == b else field.zero
                assert acc == want, (e, p, n, a, b)


def test_degree_sum_of_squares():
    for e, p, n in [(3, 3, 3), (4, 4, 3), (4, 2, 2), (6, 6, 2)]:
        params = GroupParams(e, p, n)
        group = BruteForceGroup(params)
        table = group.character_table()
        ident = group.class_index_of(group.identity)
        total = sum(int(str(row[ident])) ** 2 for row in table)
        assert total == group.order


def test_trivial_group_character_table():
    # the exponent is 1, so the lift needs an element of order 1 in F_p
    table = BruteForceGroup(GroupParams(1, 1, 1)).character_table()
    assert [[str(v) for v in row] for row in table] == [["1"]]
    assert BruteForceGroup(GroupParams(3, 3, 1)).character_table() == table


def test_dixon_inverts_each_class_element_at_most_once(monkeypatch):
    # the class matrices stop once the class algebra splits, and each builds
    # on the inverses of its class: at most |G| + k inversions, not k |G|
    group = BruteForceGroup(GroupParams(3, 1, 4))
    k = len(group.conjugacy_classes())
    calls = []

    def spy(w, e):
        calls.append(w)
        return e_inv(w, e)

    monkeypatch.setattr(oracle, "e_inv", spy)
    group.character_table()
    assert len(calls) <= group.order + k == 1995


def test_table_problems_sees_values_and_labels():
    # a conjugated table has the right rows under the wrong labels; G(5,1,2)
    # and G(8,4,2) have phi(e) = 4
    for e, p, n in [(3, 3, 3), (6, 2, 2), (5, 1, 2), (8, 4, 2)]:
        table = coset_char_table(GroupParams(e, p, n))
        assert table_problems(table) == [], (e, p, n)
        changed = [row[:] for row in table.entries]
        changed[1][1] = changed[1][1] + changed[1][1].field.one
        changed = CosetTable(table.params, table.rows, table.cols, changed)
        assert table_problems(changed), (e, p, n)
        assert conjugated(table).entries != table.entries
        assert table_problems(conjugated(table)), (e, p, n)
    # phi runs over Z/3 for ((1);(1);(1)) in G(3,3,3); in G(6,2,2) phi = -phi
    assert table_problems(phi_swapped(coset_char_table(GroupParams(3, 3, 3))))
    with pytest.raises(ValueError):
        BruteForceGroup(GroupParams(2, 2, 2, 1)).table_problems([], [], [])


def test_size_cap():
    with pytest.raises(ValueError):
        BruteForceGroup(GroupParams(10, 1, 6))


def test_report():
    _, report = brute_force_oracle(GroupParams(2, 2, 2))
    assert report.order == 4
    assert report.class_count == 4
    assert report.coset_orbit_counts[0] == 4
