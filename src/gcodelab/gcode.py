"""Right ideals of F_p[G] as linear codes.

A GCode owns a canonical RowBasis of width |G|; construction verifies closure
under right translation by the group's generators, so an existing GCode is an
ideal by construction.  Minimum distance is exact, by codeword enumeration
behind a guard on all p^k codewords (never an approximation): every codeword
is the sum of a word spanned by the top half of the basis and one spanned by
the bottom half, so the scan builds the two spans once and combines them
block by block.  Right translation is transitive on the coordinates and
column 0 is row 0's pivot, so some minimum-weight word has leading message
digit 1: the scan reads only those p^(k-1) messages.  A GCode is immutable,
so it scans its codewords at most once and keeps the result.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import groups, linalg
from .errors import GuardExceeded, VerificationError
from .ffield import PrimeField
from .galg import AlgElem
from .groups import Group, Subgroup, same_group
from .linalg import RowBasis

DEFAULT_GUARD = 1 << 26
_BLOCK = 1 << 16  # span-table entries combined at once: bounds memory, stays in cache


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

    def min_distance(self, guard: int | None = None) -> int:
        """Exact minimum weight of a nonzero codeword, by enumeration behind the
        guard on all p^k codewords."""
        return self._minimum(guard)[0]

    def min_weight_codeword(self, guard: int | None = None) -> AlgElem:
        """The first minimum-weight codeword, in message order, whose
        identity coefficient is 1 (deterministic)."""
        _, msg = self._minimum(guard)
        k, p = self.dim, self.field.p
        divs = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
        digits = (msg // divs) % p
        return AlgElem(
            self.group, self.field, (digits @ self.basis.matrix) % p
        )

    def _minimum(self, guard: int | None) -> tuple[int, int]:
        """The `_split_scan` of the basis.  The guard is checked on every
        call; the scan runs on the first one only."""
        if self.dim == 0:
            raise ValueError("the zero code has no minimum distance")
        guard = DEFAULT_GUARD if guard is None else guard
        k, p = self.dim, self.field.p
        if p**k > guard:
            raise GuardExceeded(
                f"{p}^{k} codewords exceed the enumeration guard {guard}"
            )
        if self._scan is None:
            self._scan = self._min_scan()
        return self._scan

    def _min_scan(self) -> tuple[int, int]:
        return _split_scan(self.basis.matrix, self.field.p)

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

    def params(self, guard: int | None = None) -> "ParamReport":
        n, k = self.length, self.dim
        if k == 0:
            return ParamReport(n, 0, None, None, True, False)
        d = self.min_distance(guard=guard)
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


def _split_scan(rows: np.ndarray, p: int) -> tuple[int, int]:
    """(minimum weight, first message index reaching it among the messages
    with leading digit 1); message index i has the base-p digits of i as
    coefficients, row 0's most significant.  The rows must be the RREF basis
    of a nonzero right ideal: right translation by G is transitive on the
    coordinates, so a minimum word w with x in its support gives the minimum
    word w·(x⁻¹·g₀), scaled so that its column-0 entry, its leading message
    digit, is 1.  Only those messages, 1/p of them, are scanned."""
    lead = _lead(rows, p)
    return _blocks(*_spans(rows, p), lead, 2 * lead, rows.shape[1], p, 1)


def _lead(rows: np.ndarray, p: int) -> int:
    """p^(ceil(k/2) - 1): top-span indices lead..2*lead-1 are the messages
    whose leading digit is 1.  Raises ValueError unless column 0 is row 0's
    pivot, which makes a message's leading digit its word's column-0 entry."""
    k = rows.shape[0]
    if k == 0 or rows[0, 0] != 1 or rows[1:, 0].any():
        raise ValueError("column 0 must be row 0's pivot")
    return p ** (k - k // 2 - 1)


def _spans(rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The spans of the top ceil(k/2) rows and of the other rows: message
    hi * p^(floor(k/2)) + lo encodes to top[hi] + bottom[lo], so message
    index order is row-major order over (top, bottom).  Over odd p the top
    span is returned negated (the span of the negated rows), so a word is
    zero exactly where its two span entries are equal."""
    k = rows.shape[0]
    split = k - k // 2
    if p == 2:
        rows = linalg.pack_f2(rows)
        return _span(rows[:split], p), _span(rows[split:], p)
    rows = rows.astype(np.min_scalar_type(2 * (p - 1)))
    return _span((p - rows[:split]) % p, p), _span(rows[split:], p)


def _blocks(
    top: np.ndarray, bottom: np.ndarray, lo: int, hi: int, n: int, p: int, stop: int
) -> tuple[int, int]:
    """(least weight, first message index reaching it) over the messages
    top[lo:hi] x bottom of `_spans`, or (n + 1, 0) if they hold no nonzero
    message.  Blocks of top rows are combined with all of bottom in message
    order, and a later block replaces the best only on a strictly smaller
    weight, so the first minimum is kept.  The scan ends after the first
    block whose least weight is at most `stop`."""
    step = max(1, _BLOCK // bottom.size)
    best = (n + 1, 0)
    for start in range(lo, hi, step):
        block = top[start : min(start + step, hi), None]
        if p == 2:
            # uint8 counts per word, summed as uint16 (n <= ORDER_CAP) only
            # when a row spans more than one word
            weights = np.bitwise_count(block ^ bottom)
            if weights.shape[2] > 1:
                weights = weights.sum(axis=2, dtype=np.uint16)
        else:
            weights = np.count_nonzero(block != bottom, axis=2)
        if start == 0:
            weights[0, 0] = n + 1  # the zero message
        j = int(np.argmin(weights))
        if weights.flat[j] < best[0]:
            best = (int(weights.flat[j]), start * len(bottom) + j)
            if best[0] <= stop:
                break
    return best


def _span(rows: np.ndarray, p: int) -> np.ndarray:
    """All combinations sum_j c_j rows[j] at index sum_j c_j p^(m-1-j), row 0
    most significant: built by doubling from the last row.  Over F_2 the
    rows are packed words; otherwise digits in a dtype that holds 2(p-1)."""
    out = np.zeros((1, rows.shape[1]), dtype=rows.dtype)
    for row in rows[::-1]:
        if p == 2:
            out = np.concatenate([out, out ^ row])
        else:
            multiples = (np.arange(p)[:, None] * row.astype(np.int64)) % p
            out = (out + multiples.astype(rows.dtype)[:, None]) % p
            out = out.reshape(-1, rows.shape[1])
    return out


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
        if not same_group(gen.group, group) or gen.field != field:
            raise ValueError("generator over a different group or field")
        rows.append(gen.multiplication_matrix().T)
    if rows:
        stacked = np.vstack(rows)
    else:
        stacked = np.zeros((0, group.order), dtype=np.int64)
    return GCode(group, linalg.rref(stacked, field, width=group.order))


def trivial_induced(group: Group, field: PrimeField, h: Subgroup) -> GCode:
    """The ideal spanned by the right-coset indicator sums of the subgroup;
    parameters are k = [G:H] and d = |H|.  Row i marks the elements whose
    `groups.coset_minima` entry is the i-th smallest coset minimum, which is
    its pivot: disjoint blocks at increasing first elements are already the
    canonical RREF."""
    minima = groups.coset_minima(group, h)
    pivots = np.unique(minima)
    return GCode(group, linalg.RowBasis(minima == pivots[:, None], pivots, field))


def is_induced(code: GCode, h: Subgroup) -> bool:
    """Whether the code is `trivial_induced(code.group, code.field, h)`, read
    from its own basis: a basis constant on every right coset of H
    (`groups.coset_minima`) spans part of the coset-indicator span, and
    dim * |H| = |G| makes it all of it."""
    basis = code.basis.matrix
    return code.dim * len(h) == code.length and np.array_equal(
        basis, basis[:, groups.coset_minima(code.group, h)]
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
    """The code of a JSON object: its group a spec string or a group object,
    its p and basis entries JSON integers, its basis in canonical RREF (so
    every entry lies in [0, p))."""
    if not isinstance(data, dict) or not {"group", "p", "basis"} <= set(data):
        raise ValueError("code file needs group, p, basis")
    gsrc = data["group"]
    if not isinstance(gsrc, (str, dict)):
        raise ValueError("a code's group must be a spec string or a group object")
    group = groups.from_spec(gsrc) if isinstance(gsrc, str) else groups.group_from_dict(gsrc)
    rows = np.asarray(data["basis"])
    if type(data["p"]) is not int or (rows.size and rows.dtype.kind != "i"):
        raise ValueError("a code's p and basis entries must be integers")
    field = PrimeField(data["p"])
    rows = rows.astype(np.int64, copy=False)
    if rows.size == 0:
        rows = rows.reshape(0, group.order)
    basis = linalg.rref(rows, field, width=group.order)
    if not np.array_equal(basis.matrix, rows):
        raise ValueError("stored basis is not in canonical reduced form")
    return GCode(group, basis)


def save_code(code: GCode, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(code_to_dict(code), fh)


def load_code(path: str) -> GCode:
    with open(path, encoding="utf-8") as fh:
        return code_from_dict(json.load(fh))
