from itertools import product

import pytest

from lrc4 import gf4


def test_addition_examples():
    assert gf4.add(gf4.W, gf4.W) == gf4.ZERO  # characteristic 2
    assert gf4.add(gf4.W, gf4.ONE) == gf4.W2  # w^2 = w + 1
    assert gf4.add(gf4.ZERO, gf4.W2) == gf4.W2


def test_multiplication_examples():
    assert gf4.mul(gf4.W, gf4.W) == gf4.W2
    assert gf4.mul(gf4.W, gf4.W2) == gf4.ONE  # w^3 = 1
    assert gf4.mul(gf4.ZERO, gf4.W) == gf4.ZERO


def test_inverse_examples():
    assert gf4.inv(gf4.ONE) == gf4.ONE
    assert gf4.inv(gf4.W) == gf4.W2
    assert gf4.inv(gf4.W2) == gf4.W
    with pytest.raises(ZeroDivisionError):
        gf4.inv(gf4.ZERO)


def test_field_axioms_exhaustive():
    E = gf4.ELEMENTS
    for a, b, c in product(E, E, E):
        assert gf4.add(gf4.add(a, b), c) == gf4.add(a, gf4.add(b, c))
        assert gf4.mul(gf4.mul(a, b), c) == gf4.mul(a, gf4.mul(b, c))
        assert gf4.mul(a, gf4.add(b, c)) == gf4.add(gf4.mul(a, b), gf4.mul(a, c))
    for a, b in product(E, E):
        assert gf4.add(a, b) == gf4.add(b, a)
        assert gf4.mul(a, b) == gf4.mul(b, a)


def test_frobenius_and_group_structure():
    for a in gf4.ELEMENTS:
        a4 = gf4.mul(gf4.mul(a, a), gf4.mul(a, a))
        assert a4 == a  # a^4 = a
        assert gf4.add(a, a) == 0  # (Z/2)^2 additive group
    # nonzero elements form a cyclic group of order 3 generated by w
    powers = {gf4.ONE}
    x = gf4.ONE
    for _ in range(2):
        x = gf4.mul(x, gf4.W)
        powers.add(x)
    assert powers == set(gf4.NONZERO)
    for a in gf4.NONZERO:
        assert gf4.mul(a, gf4.inv(a)) == gf4.ONE


def test_symbols_round_trip():
    for a in gf4.ELEMENTS:
        assert gf4.from_symbol(gf4.to_symbol(a)) == a
    assert gf4.from_symbol("w2") == gf4.W2
    assert gf4.from_symbol("w^2") == gf4.W2
    with pytest.raises(ValueError):
        gf4.from_symbol("x")
