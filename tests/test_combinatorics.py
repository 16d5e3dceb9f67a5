from fractions import Fraction

import pytest

from greenrefl.combinatorics import (
    CharParam,
    ClassParam,
    GroupParams,
    a_value,
    alpha_divide,
    alpha_truncate,
    class_multiplicity,
    delta,
    enumerate_char_params,
    enumerate_class_params,
    enumerate_epartitions,
    ep_str,
    f_invariant,
    make_symbol,
    orbit_data,
    partition_similarity_classes,
    partitions,
    similarity_order,
    theta,
)

P = lambda *comps: tuple(tuple(c) for c in comps)


def partition_a_value(alpha, r, n):
    """a-value of the symbol of alpha with all row lengths max(n, parts)."""
    m = max(n, max((len(c) for c in alpha), default=0), 1)
    return a_value(make_symbol(alpha, (m,) * len(alpha), r))


def test_partitions():
    assert partitions(0) == ((),)
    assert partitions(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_enumerate_epartitions_counts():
    assert len(enumerate_epartitions(0, 3)) == 1
    assert enumerate_epartitions(0, 3) == (((), (), ()),)
    assert len(enumerate_epartitions(2, 2)) == 5
    # generating-function check: coefficient of x^3 in (sum p(k) x^k)^3
    assert len(enumerate_epartitions(3, 3)) == 22
    # order is deterministic, descending
    parts = enumerate_epartitions(2, 2)
    assert parts == tuple(sorted(parts, reverse=True))


def test_ep_str():
    assert ep_str(P((2, 1), (), (1,))) == "(21;;1)"
    assert ep_str(P((10, 2), ())) == "(10,2;)"


def test_theta():
    assert theta(P((2,), (1,), ()), 3) == P((), (2,), (1,))
    assert theta(P((1,), (1,)), 2) == P((1,), (1,))
    alpha = P((3, 1), (2,), ())
    assert theta(alpha, 1) == alpha
    thrice = theta(theta(theta(alpha, 3), 3), 3)
    assert thrice == alpha


def test_orbit_data():
    orbit, c = orbit_data(P((1,), (1,), (1,)), 3)
    assert c == 1 and orbit == (P((1,), (1,), (1,)),)
    orbit, c = orbit_data(P((2,), (1,), ()), 3)
    assert c == 3
    assert orbit[0] == max(orbit)
    _, c = orbit_data(P((2, 1), ()), 1)
    assert c == 1


def test_delta():
    assert delta(P((1, 1, 1), (), ())) == 0
    assert delta(P((1,), (1, 1), ())) == 2
    assert delta(P((), (), (2,))) == 2


def test_alpha_divide():
    params = GroupParams(2, 2, 2)
    assert alpha_divide(P((2, 2), ()), 0, GroupParams(2, 2, 4)) == P((2, 2), ())
    assert alpha_divide(P((2, 2), ()), 1, GroupParams(2, 2, 4)) == ((1, 1),)
    assert alpha_divide(P((2, 1), ()), 1, GroupParams(2, 2, 3)) is None
    # h * delta(alpha[j]) == delta(alpha) whenever defined
    params = GroupParams(4, 2, 4)
    for alpha in enumerate_epartitions(4, 4):
        for j in range(params.p):
            divided = alpha_divide(alpha, j, params)
            if divided is not None:
                assert params.h_of(j) * delta(divided) == delta(alpha)


def test_alpha_truncate():
    params = GroupParams(2, 2, 4)
    beta = P((2, 1), (2, 1))
    assert alpha_truncate(beta, 0, params) == beta
    assert alpha_truncate(beta, 1, params) == ((2, 1),)
    params42 = GroupParams(4, 2, 2)
    alpha = P((1,), (), (1,), ())    # orbit size 2 under shift by d=2... actually stable
    orbit, c = orbit_data(alpha, 2)
    assert c == 1
    two = P((1,), (1,), (), ())
    _, c2 = orbit_data(two, 2)
    assert c2 == 2
    assert alpha_truncate(two, 1, params42) is None


def test_f_invariant():
    params = GroupParams(2, 2, 2)
    assert f_invariant(P((2,), ()), 1, 0, params) == 0
    assert f_invariant(P((2,), ()), 1, 1, params) == 1
    assert f_invariant(P((2, 1), ()), 1, 1, GroupParams(2, 2, 3)) == 0


def test_enumerate_char_params_counts():
    assert len(enumerate_char_params(GroupParams(2, 2, 2))) == 4
    assert len(enumerate_char_params(GroupParams(3, 3, 3))) == 10
    # p = 1: all e-partitions, trivial stabilizer label
    chars = enumerate_char_params(GroupParams(3, 1, 2))
    assert len(chars) == len(enumerate_epartitions(2, 3))
    assert all(z.phi == 0 for z in chars)


def test_enumerate_class_params():
    params = GroupParams(2, 2, 2)
    classes = enumerate_class_params(params)
    assert len(classes) == 4
    split = [xi for xi in classes if xi.beta == P((2,), ())]
    assert [xi.b for xi in split] == [0, 1]
    nonsplit = [xi for xi in classes if xi.beta == P((1, 1), ())]
    assert [xi.b for xi in nonsplit] == [0]
    assert class_multiplicity(P((2,), ()), params) == 2
    assert class_multiplicity(P((1, 1), ()), params) == 1
    # degenerate = all parts even, rest empty (type D)
    params4 = GroupParams(2, 2, 4)
    assert class_multiplicity(P((4,), ()), params4) == 2
    assert class_multiplicity(P((2, 2), ()), params4) == 2
    assert class_multiplicity(P((3, 1), ()), params4) == 1
    assert class_multiplicity(P((1, 1), (1, 1)), params4) == 1
    # counts match character counts on a small grid
    for e, p, n in [(2, 2, 2), (2, 2, 3), (3, 3, 2), (3, 3, 3), (4, 2, 2),
                    (4, 4, 2), (4, 4, 3), (2, 1, 3), (3, 1, 2)]:
        for q in range(0, e):
            try:
                params = GroupParams(e, p, n, q)
            except ValueError:
                continue
            assert len(enumerate_char_params(params)) == len(
                enumerate_class_params(params)
            ), (e, p, n, q)


def test_class_count_vs_chars_q1():
    params = GroupParams(2, 2, 3, 1)
    assert len(enumerate_char_params(params)) == 5
    assert len(enumerate_class_params(params)) == 5
    assert all(xi.b == 0 for xi in enumerate_class_params(params))


def test_make_symbol():
    sym = make_symbol(P((1, 1, 1), (), ()), (3, 3, 3), 2)
    assert sym.rows == ((5, 3, 1), (4, 2, 0), (4, 2, 0))
    sym0 = make_symbol(P((), (), ()), (3, 3, 3), 2)
    assert sym0.rows == ((4, 2, 0), (4, 2, 0), (4, 2, 0))
    sym8 = make_symbol(P((3,), (), ()), (1, 1, 1), 2)
    assert sym8.rows == ((3,), (0,), (0,))
    with pytest.raises(ValueError):
        make_symbol(P((1, 1), ()), (1, 1), 2)


def test_a_value_paper_examples():
    m = (3, 3, 3)
    assert a_value(make_symbol(P((), (), ()), m, 2)) == 0
    assert a_value(make_symbol(P((1, 1, 1), (), ()), m, 2)) == 9
    assert a_value(make_symbol(P((1, 1), (1,), ()), m, 2)) == 4
    assert a_value(make_symbol(P((2, 1), (), ()), m, 2)) == 3
    assert a_value(make_symbol(P((1,), (1,), (1,)), m, 2)) == 3
    assert a_value(make_symbol(P((2,), (1,), ()), m, 2)) == 1
    assert a_value(make_symbol(P((3,), (), ()), m, 2)) == 0
    # dihedral: a((11;-;...)) = e, a((1;..;1;..)) = 1, a((2;-;..)) = 0,
    # independent of r
    for e in (3, 4, 5, 6):
        for r in (1, 2, 3):
            assert partition_a_value(((1, 1),) + ((),) * (e - 1), r, 2) == e
            one_one = ((1,), (1,)) + ((),) * (e - 2)
            assert partition_a_value(one_one, r, 2) == 1
            assert partition_a_value(((2,),) + ((),) * (e - 1), r, 2) == 0


def test_a_value_shift_invariance():
    for e, n, r in [(2, 3, 1), (3, 3, 2), (4, 2, 2), (1, 4, 2)]:
        for alpha in enumerate_epartitions(n, e):
            sym = make_symbol(alpha, (n,) * e, r)
            assert a_value(sym.shift()) == a_value(sym)
            assert a_value(sym.shift().shift()) == a_value(sym)


def test_theta_preserves_similarity_and_a():
    params = GroupParams(4, 4, 3)
    for alpha in enumerate_epartitions(3, 4):
        assert partition_a_value(theta(alpha, 4), 2, 3) == partition_a_value(alpha, 2, 3)
        sym = make_symbol(alpha, (3,) * 4, 2)
        sym2 = make_symbol(theta(alpha, 4), (3,) * 4, 2)
        assert sym.entries() == sym2.entries()


def test_similarity_order_g333():
    order = similarity_order(GroupParams(3, 3, 3), 2)
    sizes = [len(cls) for cls in order.classes]
    assert sizes == [1, 2, 3, 1, 2, 1]
    assert list(order.a_values) == [9, 4, 3, 3, 1, 0]
    labels = [[z.label() for z in cls] for cls in order.classes]
    assert labels[0] == ["(111;;)"]
    assert labels[1] == ["(11;1;)", "(1;11;)"]
    assert labels[2] == ["(1;1;1)", "(1;1;1)'", "(1;1;1)''"]
    assert labels[3] == ["(21;;)"]
    assert labels[4] == ["(2;1;)", "(1;2;)"]
    assert labels[5] == ["(3;;)"]


def test_similarity_order_g443():
    order = similarity_order(GroupParams(4, 4, 3), 2)
    sizes = [len(cls) for cls in order.classes]
    assert sizes == [1, 3, 1, 1, 3, 1]
    assert list(order.a_values) == [12, 5, 4, 3, 1, 0]
    labels = [[z.label() for z in cls] for cls in order.classes]
    assert labels[0] == ["(111;;;)"]
    assert labels[1] == ["(11;1;;)", "(11;;1;)", "(1;11;;)"]
    assert labels[2] == ["(21;;;)"]
    assert labels[3] == ["(1;1;1;)"]
    assert labels[4] == ["(2;1;;)", "(2;;1;)", "(1;2;;)"]
    assert labels[5] == ["(3;;;)"]


def test_similarity_order_dihedral():
    # 3 classes for any e >= 3 and any r, sizes 1, floor(e/2)+(1 if even), 1
    for e in (3, 4, 5, 6):
        for r in (1, 2, 3):
            order = similarity_order(GroupParams(e, e, 2), r)
            sizes = [len(cls) for cls in order.classes]
            k = e // 2 - 1 + (2 if e % 2 == 0 else 1)
            assert sizes == [1, k, 1]
            assert list(order.a_values) == [e, 1, 0]
            assert order.classes[0][0].alpha == ((1, 1),) + ((),) * (e - 1)
            assert order.classes[2][0].alpha == ((2,),) + ((),) * (e - 1)
            # reflection-type members come in the natural order
            first = order.classes[1][0].alpha
            assert first == ((1,), (1,)) + ((),) * (e - 2)


def test_similarity_classes_are_intervals():
    for params in [GroupParams(3, 3, 3), GroupParams(4, 4, 3), GroupParams(4, 2, 2)]:
        order = similarity_order(params, 2)
        chars = enumerate_char_params(params)
        pos = 0
        for cls in order.classes:
            assert tuple(chars[pos : pos + len(cls)]) == cls
            pos += len(cls)
        assert pos == len(chars)


def test_canonical_rep_packs_left():
    for alpha in enumerate_epartitions(3, 4):
        orbit, _ = orbit_data(alpha, 4)
        rep = orbit[0]
        assert rep in orbit
        assert tuple(reversed(rep)) == min(tuple(reversed(a)) for a in orbit)


def test_char_class_counts_n4():
    # counts also agree at n = 4 for all valid cosets up to e = 4
    for e, p in [(2, 2), (3, 3), (4, 4), (4, 2)]:
        for q in range(e):
            try:
                params = GroupParams(e, p, 4, q)
            except ValueError:
                continue
            assert len(enumerate_char_params(params)) == len(
                enumerate_class_params(params)
            ), (e, p, 4, q)
