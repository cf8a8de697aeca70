"""Dense linear algebra over prime fields.

Matrices are plain numpy integer arrays with entries reduced mod p; every
public function takes the field explicitly.  RowBasis is the canonical
reduced-row-echelon representation of a subspace, so two subspaces are equal
exactly when their RowBasis matrices (and pivot tuples) are equal.

Reduction is deterministic: leftmost pivot column first, topmost available
row as pivot, full elimination above and below.  This keeps every basis in
the package byte-stable across runs and thread counts.

`rref_stack` runs the same reduction on a whole (B, r, c) stack of matrices
at once, for every p; the sweeps eliminate through it over odd p.  Over F_2
there are two bit-packed layers.  A packed row is ceil(c/64) little-endian
uint64 words (bit c % 64 of word c // 64 is column c): the F_2 sweeps build
their translate rows in that form directly (galg.translate_weights) and
reduce them with `f2_rref_stack`, one XOR per cleared row; `pack_f2` packs
the rows the minimum-distance scan XORs and counts.  Both stack kernels
return their rows in the form they worked in (packed words, or the narrowest
integer dtype that held the reduction), and `reduced_basis` is the one
conversion of such rows to a RowBasis.  The seeded ideal search
keeps one Python int per row (bit c = column c) in `f2_rank`/`f2_rref` and
unpacks the reduced rows with numpy shifts.  `f2_rank` is also the
independent F_2 rank of the uncertainty sweep's audit
(theorems.uncertainty_checks, one call per matrix on rows packed by
np.packbits), and `rank` its rank over odd p, since neither shares code with
the packed words or the stacks it audits.  Both layers are cross-checked
against the generic path in the test suite.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .ffield import PrimeField


def as_matrix(rows, field: PrimeField, width: int | None = None) -> np.ndarray:
    """Coerce to a 2-D int64 array reduced mod p.

    Accepts anything numpy can turn into a rectangular integer grid; an empty
    row list needs `width` to fix the ambient dimension.
    """
    a = np.asarray(rows, dtype=np.int64)
    if a.size == 0:
        if width is None:
            raise ValueError("empty matrix needs an explicit width")
        a = a.reshape(0, width)
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if width is not None and a.shape[1] != width:
        raise ValueError(f"expected width {width}, got {a.shape[1]}")
    return a % field.p


def _rref_array(a: np.ndarray, field: PrimeField) -> tuple[np.ndarray, list[int]]:
    """In-place style Gaussian elimination; returns (nonzero rows, pivots)."""
    p = field.p
    m = a.copy()
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        if m[r, c] != 1:
            m[r] = (m[r] * field.inv(int(m[r, c]))) % p
        col = m[:, c].copy()
        col[r] = 0
        if np.any(col):
            m = (m - np.outer(col, m[r])) % p
        pivots.append(c)
        r += 1
    return m[:r], pivots


class RowBasis:
    """Canonical basis of a subspace of F_p^n: RREF matrix with no zero rows.

    Construct through `rref`; the initializer re-validates the invariants
    (pivot entries 1, pivot columns otherwise 0, strictly increasing pivots).
    """

    __slots__ = ("matrix", "pivots", "field")

    def __init__(self, matrix: np.ndarray, pivots: Sequence[int], field: PrimeField):
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.ndim != 2:
            raise ValueError("basis matrix must be 2-D")
        pivots = tuple(int(c) for c in pivots)
        nrows, ncols = matrix.shape
        if nrows != len(pivots):
            raise ValueError("one pivot per row required")
        if matrix.size and (matrix.min() < 0 or matrix.max() >= field.p):
            raise ValueError("entries must be canonical residues")
        if any(b <= a for a, b in zip(pivots, pivots[1:])):
            raise ValueError("pivots must strictly increase")
        if nrows and (pivots[0] < 0 or pivots[-1] >= ncols):
            raise ValueError("pivot columns must lie inside the matrix")
        piv = np.array(pivots, dtype=np.int64)
        if not np.array_equal(matrix[:, piv], np.eye(nrows, dtype=np.int64)):
            if np.any(matrix[np.arange(nrows), piv] != 1):
                raise ValueError("pivot entries must be 1")
            raise ValueError("pivot columns must be elsewhere 0")
        if np.any(matrix[np.arange(ncols) < piv[:, None]]):
            raise ValueError("rows must be zero left of their pivot")
        matrix = matrix.copy()
        matrix.setflags(write=False)
        self.matrix = matrix
        self.pivots = pivots
        self.field = field

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def ambient(self) -> int:
        return self.matrix.shape[1]

    def contains(self, v) -> bool:
        """Membership of a single vector in the row space."""
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.ambient,):
            raise ValueError(f"expected a vector of length {self.ambient}")
        return self.contains_rows(v[None])

    def contains_rows(self, rows: np.ndarray) -> bool:
        """True when every row of `rows` lies in the row space."""
        rows = as_matrix(rows, self.field, self.ambient)
        if rows.shape[0] == 0:
            return True
        if self.dim == 0:
            return not np.any(rows)
        coeffs = rows[:, list(self.pivots)]
        return bool(np.array_equal((coeffs @ self.matrix) % self.field.p, rows))

    def key(self) -> bytes:
        """Canonical bytes, suitable for dict-based deduplication."""
        return (
            self.ambient.to_bytes(4, "little")
            + self.field.p.to_bytes(4, "little")
            + self.matrix.tobytes()
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RowBasis)
            and self.field == other.field
            and self.pivots == other.pivots
            and self.matrix.shape == other.matrix.shape
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"RowBasis(dim={self.dim}, ambient={self.ambient}, p={self.field.p})"


def rref(a, field: PrimeField, width: int | None = None) -> RowBasis:
    """Canonical reduced row echelon basis of the row space of `a`."""
    m = as_matrix(a, field, width)
    reduced, pivots = _rref_array(m, field)
    return RowBasis(reduced, pivots, field)


def rank(a, field: PrimeField) -> int:
    m = as_matrix(a, field)
    return _rref_array(m, field)[0].shape[0]


def _inv_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverse of nonzero residues, a^(p-2) by repeated squaring."""
    out = np.ones_like(a)
    base = a.copy()
    e = p - 2
    while e:
        if e & 1:
            out = (out * base) % p
        base = (base * base) % p
        e >>= 1
    return out


def rref_stack(stack, field: PrimeField) -> tuple[np.ndarray, np.ndarray]:
    """Canonical RREF of every matrix of a (B, r, c) stack, in one pass.

    Returns (reduced, ranks): reduced[b, :ranks[b]] are the rows `rref`
    gives for stack[b], row for row, and the remaining rows are zero.  The
    pivot choice is the one of `rref` (leftmost column, topmost row), made
    for all B matrices at once, column by column.  The stack may have any
    integer dtype that holds p (digits can come in as bytes); the result
    keeps the work dtype below.

    Only the pivot column and the pivot rows are reduced mod p as the pass
    goes; every other entry changes by at most (p-1)^2 per column, so the
    entries stay within (p-1) + c*(p-1)^2 and the work dtype is the smallest
    one that holds that bound (int16 for p = 3 up to 8,191 columns).  One
    reduction at the end makes all canonical.  This is the reference
    `f2_rref_stack` is tested against over F_2.
    """
    p = field.p
    m = np.asarray(stack)
    if m.ndim != 3:
        raise ValueError(f"expected a (B, r, c) stack, got ndim={m.ndim}")
    nmat, nrows, ncols = m.shape
    bound = (p - 1) + ncols * (p - 1) ** 2
    work = next(t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max)
    m = (m % p).astype(work)
    ranks = np.zeros(nmat, dtype=np.int64)
    below = np.arange(nrows)
    every = np.arange(nmat)
    for c in range(ncols):
        col = m[:, :, c] % p
        cand = (col != 0) & (below >= ranks[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        # matrices without a pivot here swap row r with itself and subtract 0
        r = np.minimum(ranks, nrows - 1)
        i = np.where(has, cand.argmax(axis=1), r)
        found = m[every, i, c:] % p
        m[every, i, c:] = m[every, r, c:]
        col[every, i] = col[every, r]
        pivot_row = (found * _inv_mod(found[:, :1], p)) % p
        factors = col * has[:, None]
        factors[every, r] = 0
        m[:, :, c:] -= factors[:, :, None] * pivot_row[:, None, :]
        m[every, r, c:] = np.where(has[:, None], pivot_row, m[every, r, c:])
        ranks += has
    m %= p
    return m, ranks


def pack_f2(m: np.ndarray) -> np.ndarray:
    """Rows of integers, read mod 2 by their low bit (negative and unreduced
    entries too), as little-endian uint64 words along the last axis: bit
    c % 64 of word c // 64 is column c."""
    *lead, ncols = m.shape
    bits = np.zeros((*lead, 64 * -(-ncols // 64)), dtype=np.uint8)
    bits[..., :ncols] = m  # the low byte keeps the residue mod 2, negatives too
    bits &= 1
    return np.packbits(bits, axis=-1, bitorder="little").view("<u8")


def unpack_f2(words: np.ndarray, ncols: int) -> np.ndarray:
    """The inverse of `pack_f2`: 0/1 int64 entries, `ncols` along the last axis."""
    bytes_ = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(bytes_, axis=-1, count=ncols, bitorder="little").astype(np.int64)


def f2_rref_stack(words: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """`rref_stack` over F_2 on a (B, r, ceil(ncols/64)) stack of rows packed
    as by `pack_f2`; returns (reduced words, ranks), reducing `words` in
    place.  Same pivot rule; the pivot row is XORed into every other row
    with its bit set.  The reduced rows are canonical, so their bytes key
    the row space."""
    nmat, nrows, nwords = words.shape
    ranks = np.zeros(nmat, dtype=np.int64)
    below = np.arange(nrows)
    every = np.arange(nmat)
    for c in range(ncols):
        w = c >> 6
        col = (words[:, :, w] & np.uint64(1 << (c & 63))) != 0
        cand = col & (below >= ranks[:, None])
        has = cand.any(axis=1)
        if not has.any():
            continue
        # matrices without a pivot here swap row r with itself and XOR nothing
        r = np.minimum(ranks, nrows - 1)
        i = np.where(has, cand.argmax(axis=1), r)
        col[every, i] = False
        col &= has[:, None]
        for k in range(w, nwords):
            word = words[:, :, k]
            pivot = word[every, i]
            word ^= np.where(col, pivot[:, None], np.uint64(0))
            word[every, i] = word[every, r]
            word[every, r] = pivot
        ranks += has
    return words, ranks


def reduced_basis(rows: np.ndarray, field: PrimeField, ncols: int) -> RowBasis:
    """The RowBasis of one matrix's nonzero reduced rows as a stack kernel
    returns them: packed words of `ncols` columns over F_2, integer entries
    otherwise.  Each row's pivot is its first nonzero column, and RowBasis
    re-validates the form."""
    rows = unpack_f2(rows, ncols) if field.p == 2 else rows
    return RowBasis(rows, (rows != 0).argmax(axis=1), field)


def kernel(a, field: PrimeField, width: int | None = None) -> RowBasis:
    """Canonical basis of the right kernel {v : a @ v = 0}."""
    m = as_matrix(a, field, width)
    ncols = m.shape[1]
    reduced, pivots = _rref_array(m, field)
    free = np.setdiff1d(np.arange(ncols), pivots)
    vecs = np.zeros((len(free), ncols), dtype=np.int64)
    vecs[:, free] = np.eye(len(free), dtype=np.int64)
    vecs[:, pivots] = (-reduced[:, free].T) % field.p
    return rref(vecs, field, width=ncols)


def subspace_intersect(a: RowBasis, b: RowBasis) -> RowBasis:
    """Intersection via the Zassenhaus block trick, in one reduction.

    The rows of the reduced [[A, A], [B, 0]] whose pivot c lies in the right
    half are zero on the left, and their right halves span the meet.  Those
    rows come last, and the reduction already made each pivot entry 1 and
    cleared its column in every other row, so the right halves are the
    canonical RREF of the meet, with pivots c - n, as they stand.
    """
    _check_compatible(a, b)
    n = a.ambient
    top = np.hstack([a.matrix, a.matrix])
    bot = np.hstack([b.matrix, np.zeros_like(b.matrix)])
    reduced, pivots = _rref_array(np.vstack([top, bot]), a.field)
    r = sum(c < n for c in pivots)
    return RowBasis(reduced[r:, n:], [c - n for c in pivots[r:]], a.field)


def _check_compatible(a: RowBasis, b: RowBasis) -> None:
    if a.field != b.field:
        raise ValueError(f"modulus mismatch: {a.field.p} vs {b.field.p}")
    if a.ambient != b.ambient:
        raise ValueError(f"ambient mismatch: {a.ambient} vs {b.ambient}")


# --- bit-packed fast path over F_2 -----------------------------------------
# A row of width n is an int whose bit c is the entry in column c.  Used by
# the seeded ideal search, where building numpy matrices per candidate would
# dominate the runtime.


def f2_rank(rows: Iterable[int]) -> int:
    """Rank of bit-packed rows over F_2."""
    basis: dict[int, int] = {}
    for v in rows:
        while v:
            low = v & -v
            if low in basis:
                v ^= basis[low]
            else:
                basis[low] = v
                break
    return len(basis)


def f2_rref(rows: Iterable[int]) -> tuple[int, ...]:
    """Canonical RREF of bit-packed rows: fully reduced, sorted by pivot."""
    basis: dict[int, int] = {}
    for v in rows:
        # basis rows are fully reduced, so one pass clears every pivot bit
        for pb, pv in basis.items():
            if v & pb:
                v ^= pv
        if v == 0:
            continue
        low = v & -v
        for pb in basis:
            if basis[pb] & low:
                basis[pb] ^= v
        basis[low] = v
    return tuple(basis[b] for b in sorted(basis))
