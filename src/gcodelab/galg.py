"""Elements of the group algebra F_p[G].

An AlgElem is a length-|G| coefficient vector indexed by the group's element
ordering.  Values are immutable; every operation returns a fresh element.
Scalar-valued operations (augmentation, inner product) return canonical int
residues.
"""

from __future__ import annotations

import numpy as np

from .ffield import PrimeField
from .groups import Group, same_group


class AlgElem:
    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group: Group, field: PrimeField, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.int64) % field.p
        if coeffs.shape != (group.order,):
            raise ValueError(
                f"need {group.order} coefficients, got shape {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        self.group = group
        self.field = field
        self.coeffs = coeffs

    # --- constructors ---

    @staticmethod
    def zero(group: Group, field: PrimeField) -> "AlgElem":
        return AlgElem(group, field, np.zeros(group.order, dtype=np.int64))

    @staticmethod
    def basis_elem(group: Group, field: PrimeField, g: int) -> "AlgElem":
        c = np.zeros(group.order, dtype=np.int64)
        c[g] = 1
        return AlgElem(group, field, c)

    @staticmethod
    def all_ones(group: Group, field: PrimeField) -> "AlgElem":
        return AlgElem(group, field, np.ones(group.order, dtype=np.int64))

    @staticmethod
    def from_text(group: Group, field: PrimeField, text: str) -> "AlgElem":
        """Parse the comma-separated residue form, e.g. "1,2"."""
        parts = [s.strip() for s in text.split(",")]
        if len(parts) != group.order:
            raise ValueError(
                f"need {group.order} comma-separated residues, got {len(parts)}"
            )
        return AlgElem(group, field, [int(s) for s in parts])

    def to_text(self) -> str:
        return ",".join(str(int(c)) for c in self.coeffs)

    # --- basic metric notions ---

    def support(self) -> set[int]:
        return {int(i) for i in np.nonzero(self.coeffs)[0]}

    def weight(self) -> int:
        return int(np.count_nonzero(self.coeffs))

    def hamming_distance(self, other: "AlgElem") -> int:
        self._check(other)
        return int(np.count_nonzero((self.coeffs - other.coeffs) % self.field.p))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    # --- algebra operations ---

    def convolve(self, other: "AlgElem") -> "AlgElem":
        """Group algebra product, by the quadratic-time definition."""
        self._check(other)
        acc = np.zeros(self.group.order, dtype=np.int64)
        np.add.at(acc, self.group.table, np.outer(self.coeffs, other.coeffs))
        return AlgElem(self.group, self.field, acc)

    def right_translate(self, g: int) -> "AlgElem":
        """The product with the basis element g; a coordinate permutation."""
        if not 0 <= g < self.group.order:
            raise ValueError(f"element index {g} out of range")
        out = np.zeros(self.group.order, dtype=np.int64)
        out[self.group.table[:, g]] = self.coeffs
        return AlgElem(self.group, self.field, out)

    def schur(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        return AlgElem(self.group, self.field, self.coeffs * other.coeffs)

    def augmentation(self) -> int:
        return int(self.coeffs.sum() % self.field.p)

    def inner(self, other: "AlgElem") -> int:
        """Augmentation of the componentwise product, which is also the
        coordinate inner product."""
        return self.schur(other).augmentation()

    def multiplication_matrix(self) -> np.ndarray:
        """The |G| x |G| matrix of left multiplication by this element;
        column j holds the coefficients of (self * g_j), so the rank equals
        the dimension of the right ideal this element generates."""
        n = self.group.order
        m = np.zeros((n, n), dtype=np.int64)
        cols = np.broadcast_to(np.arange(n), (n, n))
        m[self.group.table, cols] = self.coeffs[:, None]
        return m

    # --- plumbing ---

    def _check(self, other: "AlgElem") -> None:
        if not same_group(self.group, other.group):
            raise ValueError("elements live over different groups")
        if self.field != other.field:
            raise ValueError(
                f"modulus mismatch: {self.field.p} vs {other.field.p}"
            )

    def __mul__(self, other: "AlgElem") -> "AlgElem":
        return self.convolve(other)

    def scale(self, scalar: int) -> "AlgElem":
        return AlgElem(self.group, self.field, self.coeffs * (scalar % self.field.p))

    def __add__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        return AlgElem(self.group, self.field, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgElem") -> "AlgElem":
        self._check(other)
        return AlgElem(self.group, self.field, self.coeffs - other.coeffs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgElem)
            and self.field == other.field
            and bool(np.array_equal(self.coeffs, other.coeffs))
            and same_group(self.group, other.group)
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        terms = []
        for i in np.nonzero(self.coeffs)[0]:
            c = int(self.coeffs[i])
            label = self.group.labels[i]
            if label == "1":
                terms.append(str(c))
            elif c == 1:
                terms.append(label)
            else:
                terms.append(f"{c}{label}")
        return "+".join(terms) if terms else "0"


def translate_weights(group: Group) -> np.ndarray:
    """Bit-packing weights of right translates, one int64 word per 64
    columns: weights[w, s, j] is 2^(table[s, j] - 64w) when table[s, j]
    lies in columns 64w..64w+63, else 0.  For 0/1 support rows `bits`,
    (bits @ weights[w])[:, j] is word w of the support mask of f·g_j.  Bit 63
    wraps to the sign bit; the sum stays exact because the translates of one
    support never collide, so it is the OR of the bits."""
    table = group.table.astype(np.int64)
    words = np.arange(-(-group.order // 64))[:, None, None]
    return np.where(table >> 6 == words, np.int64(1) << (table & 63), np.int64(0))
