import random

import pytest

from greenrefl.exact_arith import CycField, TPoly, TRat
from greenrefl.linalg import (
    block_ldu,
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
