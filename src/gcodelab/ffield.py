"""Arithmetic in prime fields F_p for small moduli p <= 2^16."""

from __future__ import annotations

MAX_MODULUS = 1 << 16


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (adequate below 2^16)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The prime field F_p.

    Primality is checked at construction.  Instances compare and hash by
    modulus, so independently constructed PrimeField(3) objects interoperate.
    Scalar operations work on canonical residues in {0, ..., p-1}.
    """

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        if not 2 <= p <= MAX_MODULUS:
            raise ValueError(f"modulus must lie in [2, {MAX_MODULUS}], got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse via the extended Euclidean algorithm."""
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        r0, r1 = self.p, a
        s0, s1 = 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
        return s0 % self.p
