"""Named code families: binary evaluation codes of bounded degree over
elementary abelian 2-groups, and a seeded search for a [24,12,8] self-dual
ideal in the binary algebra of the symmetric group on four letters.

The evaluation-point order is the group's element order, so the degree-r
code is literally an ideal (translation substitutes x -> x + a, which
preserves degree), not merely equivalent to one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import gcode as gc
from . import linalg, schur
from .errors import VerificationError
from .ffield import PrimeField
from .galg import AlgElem, translate_weights
from .gcode import GCode
from .groups import Group, make_elementary_abelian, make_symmetric

_RM_MAX_VARS = 6


def reed_muller(r: int, m: int) -> GCode:
    """Degree-<=r evaluation code on F_2^m as an ideal over (C_2)^m.

    Basis rows are the evaluation vectors of the monomials of degree at most
    r at all 2^m points, points ordered like the group elements (binary
    digits of the index, most significant first).
    """
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    if m > _RM_MAX_VARS:
        raise ValueError(f"variable count capped at {_RM_MAX_VARS}")
    field = PrimeField(2)
    group = make_elementary_abelian(2, m)
    n = group.order
    idx = np.arange(n)
    points = np.zeros((n, m), dtype=np.int64)
    for j in range(m):
        points[:, j] = (idx >> (m - 1 - j)) & 1
    rows = []
    for deg in range(r + 1):
        for subset in combinations(range(m), deg):
            vec = np.ones(n, dtype=np.int64)
            for j in subset:
                vec &= points[:, j]
            rows.append(vec)
    code = GCode(group, linalg.rref(np.array(rows), field, width=n))
    expected = sum(comb(m, i) for i in range(r + 1))
    if code.dim != expected:
        raise VerificationError(
            f"monomial span has dimension {code.dim}, expected {expected}"
        )
    return code


def rm_schur_square_check(r: int, m: int) -> dict:
    """The square of the degree-r code is the degree-2r code; below the
    self-dual threshold it stays strictly inside the even-weight ideal."""
    if 2 * r > m:
        raise ValueError("need 2r <= m so the doubled order exists")
    code = reed_muller(r, m)
    square = schur.schur_product(code, code)
    doubled = reed_muller(2 * r, m)
    if square.basis != doubled.basis:
        raise VerificationError("square differs from the doubled-order code")
    verdict = {
        "square_dim": square.dim,
        "equals_doubled_order": True,
        "strict_in_even_weight": None,
    }
    if 2 * r < m - 1:
        even = gc.augmentation_ideal(code.group, code.field)
        strict = square.issubset(even) and square.dim < even.dim
        verdict["strict_in_even_weight"] = strict
        if not strict:
            raise VerificationError(
                "square failed to sit strictly inside the even-weight ideal"
            )
    return verdict


@dataclass(frozen=True)
class GolaySearchResult:
    """A verified [24,12,8] ideal plus the trial that produced it; the code is
    always self-dual (checked by `golay_search`) and keeps its scan."""

    code: GCode
    trial: int
    generator: AlgElem


_GOLAY_DIM = 12
_GOLAY_DIST = 8
_FIRST_CHUNK = 1 << 9  # hits come about once in 325 trials
_SEARCH_CHUNK = 1 << 15
# a winner's weight: that of a nonzero extended Golay word other than all-ones
_GOLAY_WEIGHTS = np.array([w in (8, 12, 16) for w in range(25)])


@functools.cache
def _s4() -> tuple[Group, np.ndarray, np.ndarray]:
    """S4, its element indices and its byte tables of right translates,
    built on the first search (not at import) and shared, read-only, by
    every later one: tables[b, v, j] is the mask of f·g_j for the f whose
    mask is v << 8b, the part of f·g_j that byte b of f's mask contributes."""
    group = make_symmetric(4)
    shifts = np.arange(group.order)
    byte_bits = (np.arange(256)[:, None] >> np.arange(8)) & 1
    weights = translate_weights(group)[0].reshape(3, 8, group.order)
    tables = byte_bits @ weights  # translates of one support never collide
    for a in (shifts, tables):
        a.setflags(write=False)
    return group, shifts, tables


def _translates(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(col_masks, odd) for a chunk of 24-bit trial masks of F_2[S4]:
    col_masks[t, j] is the mask of f·g_j for f = masks[t], the OR of one
    table row per byte of f, and odd[t] says whether some ⟨f, f·g_j⟩ is 1.
    As ⟨f·g_i, f·g_j⟩ = ⟨f, f·g_j·g_i⁻¹⟩, the ideal f·F_2[S4] is
    self-orthogonal (f̂·f = 0) exactly when odd[t] is False."""
    tables = _s4()[2]
    col_masks = tables[0][masks & 255]
    col_masks |= tables[1][(masks >> 8) & 255]
    col_masks |= tables[2][masks >> 16]
    # popcount(f & f·g_j) mod 2
    parity = col_masks & masks[:, None]
    np.bitwise_count(parity, out=parity)
    np.bitwise_and(parity, 1, out=parity)
    return col_masks, parity.any(axis=1)


def golay_search(budget: int, seed: int) -> GolaySearchResult | None:
    """Sample single generators f in the binary algebra of S4 and return the
    first trial whose ideal verifies as a [24,12,8] self-dual code.

    Trials draw 24-bit coefficient masks from one Philox stream keyed by the
    seed, so the outcome (and the winning trial index) depends only on
    (budget, seed): the stream does not depend on how it is chunked, and
    chunks start small and double, since most searches hit early.
    Exhausting the budget without a hit returns None, a normal outcome.
    Every binary [24,12,8] code is the extended Golay code up to
    equivalence (Pless 1968), so each chunk first drops, in two vectorized
    screens, every trial that could not win; the winner is the same as
    without them.  A winner f lies in its ideal C = f·F_2[S4] (f = f·1) and
    is nonzero, and C has weight enumerator 1 + 759y⁸ + 2576y¹² + 759y¹⁶ +
    y²⁴; the all-ones word spans a 1-dimensional ideal (1̄·g = 1̄), so the
    first screen keeps the trials of weight 8, 12 or 16.  The second drops
    every survivor whose ideal is not self-orthogonal: C ⊆ C^⊥ exactly when
    f̂·f = 0, and the Golay code is self-dual.  Survivors keep their own
    trial indices.
    A candidate of dimension 12 has its distance scanned from its rows; only
    the winner becomes a GCode, built once from its generator by the generic
    F_p elimination.  Its basis must equal the candidate the search scanned,
    its own scan (kept for params) must give d = 8, and it must be
    self-dual: 2·dim = |G| and C ⊆ C^⊥ give C = C^⊥.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), not {seed}")
    field = PrimeField(2)
    group, shifts, _ = _s4()
    rng = np.random.Generator(np.random.Philox(key=seed))

    def scan(start: int, masks: np.ndarray) -> tuple[int, int, np.ndarray] | None:
        keep = np.flatnonzero(_GOLAY_WEIGHTS[np.bitwise_count(masks)])
        col_masks, odd = _translates(masks[keep])
        for j in np.flatnonzero(~odd).tolist():
            t = int(keep[j])
            rows = col_masks[j].tolist()
            if linalg.f2_rank(rows) != _GOLAY_DIM:
                continue
            key = np.array(linalg.f2_rref(rows), dtype=np.int64)
            matrix = (key[:, None] >> shifts) & 1
            # the rows span a right ideal by construction: a losing candidate
            # needs its distance only, not a validated GCode
            if gc._split_scan(matrix, 2)[0] != _GOLAY_DIST:
                continue
            return start + t, int(masks[t]), matrix
        return None

    hit: tuple[int, int, np.ndarray] | None = None
    produced, chunk = 0, _FIRST_CHUNK
    while hit is None and produced < budget:
        size = min(chunk, budget - produced)
        masks = rng.integers(0, 1 << group.order, size=size, dtype=np.int64)
        hit = scan(produced, masks)
        produced += size
        chunk = min(2 * chunk, _SEARCH_CHUNK)
    if hit is None:
        return None
    trial, mask, matrix = hit
    gen = AlgElem(group, field, (mask >> shifts) & 1)
    code = gc.ideal_from_generators(group, field, [gen])
    if not np.array_equal(code.basis.matrix, matrix):
        raise VerificationError("winning trial failed re-verification")
    if code.min_distance() != _GOLAY_DIST:
        raise VerificationError("winning trial failed its codeword scan")
    if 2 * code.dim != group.order or not code.is_self_orthogonal():
        raise VerificationError("winning trial is not self-dual")
    return GolaySearchResult(code, trial, gen)
