"""Componentwise (Schur) products and powers of G-codes.

The product of two ideals is the span of the pairwise componentwise products
of their basis rows; it is an ideal again, and its dimension obeys

    dim (C * C') <= min(n, k*k' - binom(dim(C intersect C'), 2)),

which is asserted on every product.  The meet's dimension is read off the
sum, dim(C intersect C') = dim C + dim C' - dim(C + C'), so the bound costs
one elimination of the stacked bases.  Powers C, C*C, (C*C)*C, ... have
non-decreasing dimension; the chain report records the dimension profile,
the first index where the dimension goes flat, and the eventual behaviour of
the codes themselves, which may be a fixed code or (away from F_2) a cycle
of constant-dimension codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import gcode, linalg
from .errors import VerificationError
from .gcode import GCode
from .groups import Subgroup, same_group

__all__ = [
    "schur_product",
    "schur_power_chain",
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


def schur_power_chain(code: GCode, max_t: int | None = None) -> SchurChainReport:
    """Iterate t -> t+1 powers until the code sequence repeats.

    Over F_2, c * c = c entrywise, so every power lies inside the next one:
    the code sits in its square, the 2-power subsequence ascends, and the
    chain ends in a fixed code containing the start.  Each step is checked,
    and the fixed code must be induced from a subgroup.  If max_t, the most
    codes the report may hold (at least 1), runs out first, a partial report
    is returned with complete=False.
    """
    if code.is_zero():
        raise ValueError("power chain needs a nonzero code")
    if max_t is None:
        max_t = 2 * code.length + 4
    if max_t < 1:
        raise ValueError(f"max_t must be at least 1, not {max_t}")
    codes = [code]
    seen = {code.key(): 1}
    dims = [code.dim]
    cycle_start: int | None = None
    period: int | None = None
    while len(codes) < max_t:
        nxt = schur_product(codes[-1], code)
        if nxt.dim < codes[-1].dim:
            raise VerificationError("power dimension decreased along the chain")
        if code.field.p == 2 and not codes[-1].issubset(nxt):
            raise VerificationError("binary power chain failed to ascend")
        t = len(codes) + 1
        prev = seen.get(nxt.key())
        if prev is not None:
            cycle_start = prev
            period = t - prev
            break
        seen[nxt.key()] = t
        codes.append(nxt)
        dims.append(nxt.dim)
    if cycle_start is None:
        return SchurChainReport(dims, None, None, None, None, False, codes)

    final_dim = dims[-1]
    regularity = next(i + 1 for i, d in enumerate(dims) if d == final_dim)
    stabilized = None
    stabilizer = None
    if period == 1:
        stabilized = codes[-1]
        stabilizer = fixed_point_structure(stabilized)
    return SchurChainReport(
        dims, regularity, period, stabilized, stabilizer, True, codes
    )


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
