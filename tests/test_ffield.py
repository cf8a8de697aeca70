import pytest

from gcodelab.ffield import PrimeField, is_prime

SMALL_PRIMES = [2, 3, 5, 7]


def test_primality_gate():
    for bad in (0, 1, 4, 6, 9, 15, 65536):
        with pytest.raises(ValueError):
            PrimeField(bad)
    with pytest.raises(ValueError):
        PrimeField((1 << 16) + 1)
    with pytest.raises(TypeError):
        PrimeField(True)
    for good in (2, 3, 5, 7, 65521):
        assert PrimeField(good).p == good
    assert is_prime(65521) and not is_prime(65535)


def test_mul_examples():
    assert PrimeField(3).mul(2, 2) == 1
    assert PrimeField(5).mul(0, 4) == 0
    assert PrimeField(2).mul(1, 1) == 1


def test_inv_examples():
    assert PrimeField(3).inv(2) == 2
    assert PrimeField(5).inv(3) == 2
    assert PrimeField(2).inv(1) == 1


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PrimeField(5).inv(0)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_field_axioms_exhaustive(p):
    F = PrimeField(p)
    elems = range(p)
    for a in elems:
        assert F.mul(a, 1) == a and F.mul(a, 0) == 0
        for b in elems:
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, (b + c) % p) == (F.mul(a, b) + F.mul(a, c)) % p


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_inverse_exhaustive_and_euclid_matches_fermat(p):
    F = PrimeField(p)
    for a in range(1, p):
        inv = F.inv(a)
        assert F.mul(a, inv) == 1
        assert inv == pow(a, p - 2, p)  # independent route


def test_field_equality_by_modulus():
    assert PrimeField(3) == PrimeField(3)
    assert PrimeField(3) != PrimeField(5)
    assert hash(PrimeField(7)) == hash(PrimeField(7))
