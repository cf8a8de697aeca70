"""Componentwise (Schur) products and powers of G-codes.

The product of two ideals is the span of the pairwise componentwise products
of their basis rows; it is an ideal again, and its dimension obeys

    dim (C * C') <= min(n, k*k' - binom(dim(C intersect C'), 2)),

which is asserted on every product.  The meet's dimension is read off the
sum, dim(C intersect C') = dim C + dim C' - dim(C + C').  Powers C, C*C,
(C*C)*C, ... have non-decreasing dimension; the chain report records the
dimension profile, the first index where the dimension goes flat, and the
eventual behaviour of the codes themselves, which may be a fixed code or
(away from F_2) a cycle of constant-dimension codes.

`schur_product` forms one product: it reduces the product rows and, for the
meet, the stacked bases.  There is one chain routine, `schur_power_chains`,
which runs the chains of a list of codes together: each step stacks, for
every running chain, its product rows (the k(k+1)/2 pairs i <= j for the
square) with the matrices its checks need, and reduces the stack at once,
by `linalg.f2_rref_stack` on packed words (a product is the AND of two
rows) over F_2 and by `linalg.rref_stack` otherwise.  `schur_power_chain` is
the chain of one code.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import gcode, linalg
from .errors import VerificationError
from .ffield import PrimeField
from .gcode import GCode
from .groups import Subgroup, same_group

__all__ = [
    "schur_product",
    "schur_power_chain",
    "schur_power_chains",
    "fixed_point_structure",
    "SchurChainReport",
]


def schur_product(a: GCode, b: GCode) -> GCode:
    """Span of the pairwise componentwise products of basis rows."""
    if not same_group(a.group, b.group):
        raise ValueError("codes live over different groups")
    if a.field != b.field:
        raise ValueError(f"modulus mismatch: {a.field.p} vs {b.field.p}")
    n = a.length
    rows = (a.basis.matrix[:, None, :] * b.basis.matrix[None, :, :]).reshape(-1, n)
    out = GCode(a.group, linalg.rref(rows, a.field, width=n))
    meet = a.dim + b.dim - linalg.subspace_sum(a.basis, b.basis).dim
    cap = min(n, a.dim * b.dim - meet * (meet - 1) // 2)
    if out.dim > cap:
        raise VerificationError(
            f"product dimension {out.dim} exceeds the bound {cap}"
        )
    return out


@dataclass
class SchurChainReport:
    """Profile of the power chain of a code.

    dims[t-1] is the dimension of the t-th power, recorded up to the point
    where the chain provably repeats.  `regularity` is the first index whose
    dimension already equals the eventual one.  `period` is the cycle length
    of the codes themselves (1 means a genuine fixed code, in which case
    `stabilized_code` holds it and `stabilizer_subgroup` the subgroup it is
    induced from).
    """

    dims: list[int]
    regularity: int | None
    period: int | None
    stabilized_code: GCode | None
    stabilizer_subgroup: Subgroup | None
    complete: bool
    codes: list[GCode] = dc_field(repr=False, default_factory=list)


ChainOutcome = SchurChainReport | VerificationError  # a chain's report or its failure


def schur_power_chain(code: GCode, max_t: int | None = None) -> SchurChainReport:
    """The power chain of one code: `schur_power_chains([code], max_t)`,
    raising the chain's VerificationError."""
    (chain,) = schur_power_chains([code], max_t)
    if isinstance(chain, VerificationError):
        raise chain
    return chain


def schur_power_chains(
    codes: Sequence[GCode], max_t: int | None = None
) -> list[ChainOutcome]:
    """Iterate t -> t+1 powers of every code, all chains at once, until each
    code sequence repeats.

    Over F_2, c * c = c entrywise, so every power lies inside the next one:
    the code sits in its square, the 2-power subsequence ascends, and the
    chain ends in a fixed code containing the start.  Each step is checked,
    and the fixed code must be induced from a subgroup.  If max_t, the most
    codes a report may hold (at least 1), runs out first, a partial report
    is returned with complete=False.  The codes share one group and field;
    a chain whose check fails gets its VerificationError in place of a
    report, and the other chains run on.

    Step t forms, for every running chain, the products of the (t-1)-th
    power's rows with the base rows (only the pairs i <= j for the square),
    and beside them [product; previous power] for the binary ascent and
    [previous power; base] for the bound's meet (the square's meet is the
    code itself).  One reduction of their zero-padded stack serves them all,
    so a step holds every running chain's matrices at once: callers bound
    that by how many codes they pass.  A repeat is found by the canonical
    reduced rows, which within one group and field is `GCode.key()`.
    """
    if not codes:
        return []
    group, field = codes[0].group, codes[0].field
    for code in codes:
        if code.is_zero():
            raise ValueError("power chain needs a nonzero code")
        if not same_group(code.group, group):
            raise ValueError("codes live over different groups")
        if code.field != field:
            raise ValueError(f"modulus mismatch: {field.p} vs {code.field.p}")
    n, p = group.order, field.p
    if max_t is None:
        max_t = 2 * n + 4
    if max_t < 1:
        raise ValueError(f"max_t must be at least 1, not {max_t}")
    bases = [linalg.pack_f2(c.basis.matrix) if p == 2 else c.basis.matrix for c in codes]
    powers = list(bases)
    held = [[code] for code in codes]
    seen = [{base.tobytes(): 1} for base in bases]
    cycles: dict[int, int] = {}  # chain -> index of the first repeated power
    out: list[ChainOutcome | None] = [None] * len(codes)
    running = list(range(len(codes)))
    t = 1
    while running and t < max_t:
        t += 1
        square = t == 2
        mats = []
        for i in running:
            product = _products(powers[i], bases[i], p, square)
            mats.append(product)
            if p == 2:
                mats.append(np.vstack([product, powers[i]]))
            if not square:
                mats.append(np.vstack([powers[i], bases[i]]))
        reduced = iter(_reduce_stack(mats, field, n))
        still = []
        for i in running:
            nxt = next(reduced)
            key = nxt.tobytes()
            ascent = next(reduced) if p == 2 else nxt  # odd p: no ascent to check
            d, k = len(powers[i]), len(bases[i])
            meet = k if square else d + k - len(next(reduced))
            cap = min(n, d * k - meet * (meet - 1) // 2)
            if len(nxt) > cap:
                out[i] = VerificationError(
                    f"product dimension {len(nxt)} exceeds the bound {cap}"
                )
            elif len(nxt) < d:
                out[i] = VerificationError("power dimension decreased along the chain")
            elif len(ascent) != len(nxt):
                out[i] = VerificationError("binary power chain failed to ascend")
            elif key in seen[i]:
                cycles[i] = seen[i][key]
            else:
                seen[i][key] = t
                rows = linalg.unpack_f2(nxt, n) if p == 2 else nxt
                pivots = (rows != 0).argmax(axis=1)
                held[i].append(GCode(group, linalg.RowBasis(rows, pivots, field)))
                powers[i] = nxt
                still.append(i)
        running = still
    for i, chain in enumerate(held):
        if out[i] is None:
            out[i] = _report(chain, cycles.get(i))
    return out


def _report(codes: list[GCode], cycle_start: int | None) -> ChainOutcome:
    """The report of a chain that holds `codes` and, when it closed, repeats
    the power at index cycle_start next."""
    dims = [code.dim for code in codes]
    if cycle_start is None:
        return SchurChainReport(dims, None, None, None, None, False, codes)
    regularity = dims.index(dims[-1]) + 1
    period = len(codes) + 1 - cycle_start
    stabilized = stabilizer = None
    if period == 1:
        stabilized = codes[-1]
        try:
            stabilizer = fixed_point_structure(stabilized)
        except VerificationError as exc:
            return exc
    return SchurChainReport(dims, regularity, period, stabilized, stabilizer, True, codes)


def _products(power: np.ndarray, base: np.ndarray, p: int, square: bool) -> np.ndarray:
    """Rows of the componentwise products power[i] * base[j], over F_2 as an
    AND of packed words; for the square (power is base) only i <= j."""
    if square:
        i, j = np.triu_indices(len(base))
        left, right = base[i], base[j]
    else:
        left, right = power[:, None], base[None]
    rows = left & right if p == 2 else left * right % p
    return rows.reshape(-1, base.shape[1])


def _reduce_stack(mats: list[np.ndarray], field: PrimeField, ncols: int) -> list[np.ndarray]:
    """The canonical RREF rows of each matrix (packed words over F_2), by one
    reduction of their zero-padded stack: linalg.f2_rref_stack over F_2,
    linalg.rref_stack otherwise."""
    stack = np.zeros((len(mats), max(map(len, mats)), mats[0].shape[1]), dtype=mats[0].dtype)
    for slot, m in enumerate(mats):
        stack[slot, : len(m)] = m
    if field.p == 2:
        reduced, ranks = linalg.f2_rref_stack(stack, ncols)
    else:
        reduced, ranks = linalg.rref_stack(stack, field)
    return [reduced[slot, :rank].copy() for slot, rank in enumerate(ranks.tolist())]


def fixed_point_structure(code: GCode) -> Subgroup:
    """Read off the subgroup a Schur-fixed code is induced from.

    A code closed under the componentwise product is spanned by the 0/1
    indicators of disjoint blocks, and a nonzero ideal has no zero column,
    so the identity's block is the set of columns of the canonical basis
    equal to column 0.  That block is certified to be a subgroup H whose
    coset-indicator span equals the code, which also proves C*C = C.  Only
    a code failing the certificate is squared: ValueError when it is not
    Schur-fixed, VerificationError (a bug) when it is.
    """
    if code.is_zero():
        raise ValueError("the zero code has no fixed-point structure")
    group = code.group
    basis = code.basis.matrix
    members = np.flatnonzero((basis == basis[:, :1]).all(axis=0)).tolist()
    try:
        sub = Subgroup(group, members)
    except ValueError:
        pass
    else:
        if gcode.trivial_induced(group, code.field, sub) == code:
            return sub
    if schur_product(code, code) != code:
        raise ValueError("code is not fixed under its own Schur square")
    raise VerificationError(
        "Schur-fixed code is not the induced span of its identity block"
    )
