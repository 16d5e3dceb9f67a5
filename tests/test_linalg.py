import random
from itertools import permutations
from math import prod

import pytest

from greenrefl.exact_arith import CycField, TPoly, TRat
from greenrefl.linalg import (
    _scaled_inverse,
    block_ldu,
    integer_block_ldu,
    invert,
    invert_unit_lower,
    mat_mul,
)


def _random_cyc(field, rng):
    return field.make([rng.randint(-3, 3) for _ in range(field.degree)], rng.randint(1, 3))


def _random_trat(field, rng):
    def coeff():
        return field.make([rng.randint(-2, 2) for _ in range(field.degree)], 1)

    num = TPoly(field, [coeff() for _ in range(rng.randint(1, 2))])
    den = TPoly(field, [coeff(), field.one])
    return TRat(num, den)


def _block_of(blocks):
    return [b for b, size in enumerate(blocks) for _ in range(size)]


def _check_ldu(a, blocks):
    """a = l diag(d) u, with l / u block lower / upper unitriangular."""
    l, d, u = block_ldu(a, blocks)
    n = len(a)
    zero = a[0][0] - a[0][0]
    one = l[0][0]
    assert one.is_one()
    block_of = _block_of(blocks)
    starts = [sum(blocks[:b]) for b in range(len(blocks))]
    diag = [
        [d[block_of[i]][i - starts[block_of[i]]][j - starts[block_of[i]]]
         if block_of[i] == block_of[j] else zero for j in range(n)]
        for i in range(n)
    ]
    assert mat_mul(mat_mul(l, diag), u) == a
    for i in range(n):
        for j in range(n):
            bi, bj = block_of[i], block_of[j]
            if bi == bj:
                unit = one if i == j else zero
                assert l[i][j] == unit and u[i][j] == unit
            else:
                assert (l if bj > bi else u)[i][j].is_zero()
    return l, d, u


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_ldu_random_cyclotomic(seed):
    rng = random.Random(seed)
    field = CycField(3)
    blocks = [2, 1, 3, 1]
    n = sum(blocks)
    a = [[_random_cyc(field, rng) for _ in range(n)] for _ in range(n)]
    _check_ldu(a, blocks)


def test_block_ldu_random_rational_functions():
    rng = random.Random(7)
    field = CycField(3)
    for blocks in ([1, 2, 2], [3, 1], [1, 1, 1]):
        n = sum(blocks)
        a = [[_random_trat(field, rng) for _ in range(n)] for _ in range(n)]
        _check_ldu(a, blocks)


def test_block_ldu_recovers_factors():
    # a = L D U with unitriangular L, U: the factorization is unique, so
    # l = L, u = U and d = D
    rng = random.Random(11)
    field = CycField(3)
    blocks = [2, 3, 1]
    n = sum(blocks)
    block_of = _block_of(blocks)
    zero, one = field.zero, field.one

    def unitri(lower):
        return [
            [
                (one if i == j else zero)
                if block_of[i] == block_of[j]
                else (_random_cyc(field, rng) if (block_of[i] > block_of[j]) == lower else zero)
                for j in range(n)
            ]
            for i in range(n)
        ]

    low, up = unitri(True), unitri(False)
    diag = [
        [_random_cyc(field, rng) if block_of[i] == block_of[j] else zero for j in range(n)]
        for i in range(n)
    ]
    a = mat_mul(mat_mul(low, diag), up)
    l, d, u = _check_ldu(a, blocks)
    assert l == low and u == up
    starts = [sum(blocks[:b]) for b in range(len(blocks))]
    for b, (s, size) in enumerate(zip(starts, blocks)):
        assert d[b] == [row[s : s + size] for row in diag[s : s + size]]


def test_block_ldu_singular_block_raises():
    field = CycField(3)
    rng = random.Random(5)
    blocks = [2, 2, 1]
    n = sum(blocks)
    a = [[_random_cyc(field, rng) for _ in range(n)] for _ in range(n)]
    # the leading block gets two equal rows
    a[1][:2] = a[0][:2]
    with pytest.raises(ValueError, match="singular"):
        block_ldu(a, blocks)
    # a singular Schur complement: make row 3 agree with row 2 after the
    # elimination of the first block, by copying row 2 plus a row-0 multiple
    b = [[_random_cyc(field, rng) for _ in range(n)] for _ in range(n)]
    c = _random_cyc(field, rng)
    b[3] = [x + c * y for x, y in zip(b[2], b[0])]
    with pytest.raises(ValueError, match="singular diagonal block at index 2"):
        block_ldu(b, blocks)
    # a singular matrix with regular leading blocks: the last block fails
    b[3] = [_random_cyc(field, rng) for _ in range(n)]
    b[4] = [x + y for x, y in zip(b[0], b[2])]
    with pytest.raises(ValueError, match="singular diagonal block at index 4"):
        block_ldu(b, blocks)


def test_block_ldu_rejects_wrong_block_sizes():
    field = CycField(3)
    a = [[field.one, field.zero], [field.zero, field.one]]
    with pytest.raises(ValueError):
        block_ldu(a, [1])


def test_scaled_inverse_is_exact():
    # p q = delta I with |delta| = |det p|, row exchanges included; a
    # singular p raises
    rng = random.Random(13)
    for size in range(1, 6):
        for trial in range(20):
            p = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            if trial % 2:
                p[0][0] = 0
            if trial % 5 == 0 and size > 1:
                p[-1] = [2 * x for x in p[0]]
            det = sum(
                (-1) ** sum(x > y for i, x in enumerate(perm) for y in perm[i + 1:])
                * prod(p[i][j] for i, j in enumerate(perm))
                for perm in permutations(range(size))
            )
            if det == 0:
                with pytest.raises(ZeroDivisionError):
                    _scaled_inverse(p)
                continue
            q, delta = _scaled_inverse(p)
            assert abs(delta) == abs(det)
            assert mat_mul_int(p, q) == [[delta * (i == j) for j in range(size)]
                                         for i in range(size)]


def mat_mul_int(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_integer_block_ldu_recovers_integral_factors():
    rng = random.Random(17)
    for blocks in ([1, 2, 2], [3, 1], [2, 2, 1, 1], [1]):
        n = sum(blocks)
        block_of = _block_of(blocks)
        big = 1 << 70

        def unitri(lower):
            return [[int(i == j) if block_of[i] == block_of[j]
                     else rng.randint(-big, big) if (block_of[i] > block_of[j]) == lower else 0
                     for j in range(n)] for i in range(n)]

        low, up = unitri(True), unitri(False)
        diag = [[rng.randint(-big, big) if block_of[i] == block_of[j] else 0 for j in range(n)]
                for i in range(n)]
        a = mat_mul_int(mat_mul_int(low, diag), up)
        l, d, u = integer_block_ldu(a, blocks)
        assert (l, u) == (low, up), blocks
        starts = [sum(blocks[:b]) for b in range(len(blocks))]
        assert d == [[row[s:s + size] for row in diag[s:s + size]]
                     for s, size in zip(starts, blocks)]


def test_integer_block_ldu_refuses_what_it_cannot_do():
    # a factor 1/2 leaves a remainder; a zero 1 x 1 pivot is singular, while
    # the same entries as one 2 x 2 block are not
    with pytest.raises(ArithmeticError, match="not integral"):
        integer_block_ldu([[2, 1], [1, 1]], [1, 1])
    with pytest.raises(ValueError, match="singular diagonal block at index 0"):
        integer_block_ldu([[0, 1], [1, 0]], [1, 1])
    with pytest.raises(ValueError, match="singular diagonal block at index 1"):
        integer_block_ldu([[1, 2, 1], [2, 4, 2], [0, 1, 1]], [1, 2])
    assert integer_block_ldu([[0, 1], [1, 0]], [2]) == ([[1, 0], [0, 1]], [[[0, 1], [1, 0]]],
                                                         [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="block sizes"):
        integer_block_ldu([[1]], [2])


def test_invert_unit_lower_matches_invert():
    rng = random.Random(5)
    field = CycField(3)
    for size in (1, 2, 5, 8):
        a = [
            [_random_cyc(field, rng) if j < i else field.one if j == i else field.zero
             for j in range(size)]
            for i in range(size)
        ]
        assert invert_unit_lower(a) == invert(a), size


def test_invert_unit_lower_rejects_other_shapes():
    field = CycField(3)
    one, zero, two = field.one, field.zero, field.from_rational(2)
    for bad in ([[one, zero], [one, two]], [[one, one], [zero, one]]):
        with pytest.raises(ValueError):
            invert_unit_lower(bad)
