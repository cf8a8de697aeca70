"""Right ideals of F_p[G] as linear codes.

A GCode owns a canonical RowBasis of width |G|; construction verifies closure
under right translation by the group's generators, so an existing GCode is an
ideal by construction.  Minimum distance is exact, by full codeword
enumeration behind a guard (never an approximation).  A GCode is immutable,
so it scans its codewords at most once and keeps the result.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import groups, linalg
from .errors import GuardExceeded, VerificationError
from .ffield import PrimeField
from .galg import AlgElem
from .groups import Group, Subgroup, same_group
from .linalg import RowBasis

DEFAULT_GUARD = 1 << 26
_CHUNK = 1 << 14


def enumeration_guard() -> int:
    """Default codeword-enumeration guard; GCODELAB_GUARD overrides."""
    env = os.environ.get("GCODELAB_GUARD")
    return int(env) if env else DEFAULT_GUARD


class GCode:
    """A right ideal of F_p[G], stored by its canonical basis."""

    __slots__ = ("group", "basis", "_scan")

    def __init__(self, group: Group, basis: RowBasis):
        if basis.ambient != group.order:
            raise ValueError(
                f"basis width {basis.ambient} != group order {group.order}"
            )
        if not is_ideal(group, basis):
            raise ValueError("basis does not span a right ideal")
        self.group = group
        self.basis = basis
        self._scan: tuple[int, int] | None = None

    @property
    def field(self) -> PrimeField:
        return self.basis.field

    @property
    def length(self) -> int:
        return self.group.order

    @property
    def dim(self) -> int:
        return self.basis.dim

    def is_zero(self) -> bool:
        return self.dim == 0

    def contains(self, elem: AlgElem) -> bool:
        return self.basis.contains(elem.coeffs)

    def issubset(self, other: "GCode") -> bool:
        return other.basis.contains_rows(self.basis.matrix)

    def key(self) -> bytes:
        """Canonical bytes of the basis and of the group's Cayley table, so
        equal ideals over different groups get different keys."""
        return self.basis.key() + self.group.table.tobytes()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GCode)
            and self.basis == other.basis
            and same_group(self.group, other.group)
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"GCode(group={self.group.name}, p={self.field.p}, dim={self.dim})"

    # --- parameters ---

    def min_distance(self, guard: int | None = None, threads: int = 1) -> int:
        """Exact minimum weight of a nonzero codeword, by full enumeration."""
        return self._minimum(guard, threads)[0]

    def min_weight_codeword(
        self, guard: int | None = None, threads: int = 1
    ) -> AlgElem:
        """The minimum-weight codeword that comes first in the lexicographic
        enumeration of message vectors (deterministic)."""
        _, msg = self._minimum(guard, threads)
        k, p = self.dim, self.field.p
        divs = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        digits = (msg // divs) % p
        return AlgElem(
            self.group, self.field, (digits @ self.basis.matrix) % p
        )

    def _minimum(self, guard: int | None, threads: int) -> tuple[int, int]:
        """(minimum weight, first message index reaching it).  The guard is
        checked on every call; the scan runs on the first one only, and its
        result does not depend on `threads`."""
        if self.dim == 0:
            raise ValueError("the zero code has no minimum distance")
        guard = enumeration_guard() if guard is None else guard
        k, p = self.dim, self.field.p
        if p**k > guard:
            raise GuardExceeded(
                f"{p}^{k} codewords exceed the enumeration guard {guard}"
            )
        if self._scan is None:
            self._scan = self._min_scan(threads)
        return self._scan

    def _min_scan(self, threads: int) -> tuple[int, int]:
        k, p = self.dim, self.field.p
        total = p**k
        B = self.basis.matrix
        divs = p ** np.arange(k - 1, -1, -1, dtype=np.int64)

        def scan(bounds: tuple[int, int]) -> tuple[int, int]:
            lo, hi = bounds
            idx = np.arange(lo, hi, dtype=np.int64)
            digits = (idx[:, None] // divs) % p
            weights = np.count_nonzero((digits @ B) % p, axis=1)
            j = int(np.argmin(weights))
            return int(weights[j]), lo + j

        ranges = [
            (lo, min(lo + _CHUNK, total)) for lo in range(1, total, _CHUNK)
        ]
        if threads > 1 and len(ranges) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(scan, ranges))
        else:
            results = [scan(r) for r in ranges]
        best = results[0]
        for cand in results[1:]:
            if cand[0] < best[0]:
                best = cand
        return best

    def dual(self) -> "GCode":
        """The code orthogonal to this one under the coordinate inner
        product; always an ideal again (checked at construction)."""
        ker = linalg.kernel(self.basis.matrix, self.field, width=self.length)
        return GCode(self.group, ker)

    def is_self_orthogonal(self) -> bool:
        if self.dim == 0:
            return True
        B = self.basis.matrix
        return not np.any((B @ B.T) % self.field.p)

    def params(self, guard: int | None = None, threads: int = 1) -> "ParamReport":
        n, k = self.length, self.dim
        if k == 0:
            return ParamReport(n, 0, None, None, True, False)
        d = self.min_distance(guard=guard, threads=threads)
        product = d * k
        if product < n:
            raise VerificationError(
                f"distance-dimension product {product} below length {n}"
            )
        if (d + k) ** 2 < 4 * n or d + k > n + 1:
            raise VerificationError(
                f"d + k = {d + k} escapes [2*sqrt({n}), {n + 1}]"
            )
        return ParamReport(n, k, d, product, True, product == n)


@dataclass(frozen=True)
class ParamReport:
    """Code parameters plus the distance-dimension bound verdicts."""

    length: int
    dimension: int
    distance: int | None
    product: int | None
    bound_ok: bool
    equality: bool

    def as_dict(self) -> dict:
        return {
            "n": self.length,
            "k": self.dimension,
            "d": self.distance,
            "product": self.product,
            "bound_ok": self.bound_ok,
            "equality": self.equality,
        }


def is_ideal(group: Group, basis: RowBasis) -> bool:
    """Row space closed under right translation by each of the group's
    generators, hence by every element."""
    if basis.ambient != group.order:
        raise ValueError("basis width must equal the group order")
    if basis.dim == 0:
        return True
    B = basis.matrix
    for g in group.generators:
        translated = np.zeros_like(B)
        translated[:, group.table[:, g]] = B
        if not basis.contains_rows(translated):
            return False
    return True


def ideal_from_generators(group: Group, field: PrimeField, gens) -> GCode:
    """The right ideal spanned by all right translates of the generators."""
    rows = []
    for gen in gens:
        if gen.group is not group or gen.field != field:
            raise ValueError("generator over a different group or field")
        rows.append(gen.multiplication_matrix().T)
    if rows:
        stacked = np.vstack(rows)
    else:
        stacked = np.zeros((0, group.order), dtype=np.int64)
    return GCode(group, linalg.rref(stacked, field, width=group.order))


def trivial_induced(group: Group, field: PrimeField, h: Subgroup) -> GCode:
    """The ideal spanned by the right-coset indicator sums of the subgroup;
    parameters are k = [G:H] and d = |H|."""
    blocks = groups.right_cosets(group, h)
    rows = np.zeros((len(blocks), group.order), dtype=np.int64)
    for i, block in enumerate(blocks):
        rows[i, block] = 1
    return GCode(group, linalg.rref(rows, field, width=group.order))


def full_algebra(group: Group, field: PrimeField) -> GCode:
    return GCode(
        group,
        linalg.rref(np.eye(group.order, dtype=np.int64), field),
    )


def zero_code(group: Group, field: PrimeField) -> GCode:
    return GCode(
        group,
        linalg.rref(
            np.zeros((0, group.order), dtype=np.int64), field, width=group.order
        ),
    )


def augmentation_ideal(group: Group, field: PrimeField) -> GCode:
    """Kernel of the coefficient-sum map; the even-weight code when p = 2."""
    ones = np.ones((1, group.order), dtype=np.int64)
    return GCode(group, linalg.kernel(ones, field))


# --- JSON files --------------------------------------------------------------


def code_to_dict(code: GCode) -> dict:
    if code.group.source:
        gsrc: str | dict = code.group.source
    else:
        gsrc = groups.group_to_dict(code.group)
    return {
        "group": gsrc,
        "p": code.field.p,
        "basis": code.basis.matrix.tolist(),
    }


def code_from_dict(data: dict) -> GCode:
    if not {"group", "p", "basis"} <= set(data):
        raise ValueError("code file needs group, p, basis")
    gsrc = data["group"]
    group = groups.from_spec(gsrc) if isinstance(gsrc, str) else groups.group_from_dict(gsrc)
    field = PrimeField(int(data["p"]))
    rows = np.asarray(data["basis"], dtype=np.int64)
    if rows.size == 0:
        rows = rows.reshape(0, group.order)
    basis = linalg.rref(rows, field, width=group.order)
    if not np.array_equal(basis.matrix, rows % field.p):
        raise ValueError("stored basis is not in canonical reduced form")
    return GCode(group, basis)


def save_code(code: GCode, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(code_to_dict(code), fh)


def load_code(path: str) -> GCode:
    with open(path, encoding="utf-8") as fh:
        return code_from_dict(json.load(fh))
