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

Every product is formed by one step, `_step`.  For a list of (left rows,
right rows, square) jobs it stacks each job's product rows (only the
k(k+1)/2 pairs i <= j for a square) and, beside a product that is not a
square, [left; right] for the meet (a square's meet is the code itself).
One reduction of the zero-padded stack serves them all: `linalg.f2_rref_stack`
on packed words (a product is the AND of two rows) over F_2, and
`linalg.rref_stack` otherwise.  The step checks the bound.
`schur_products` runs a list of pairs through one step, and `schur_product`
is a batch of one.  `schur_power_chains` runs the chains of a list of codes
together, one step per power, and `schur_power_chain` is the chain of one
code.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import VerificationError
from .ffield import PrimeField
from .gcode import GCode, is_induced
from .groups import Group, Subgroup, same_group

__all__ = [
    "schur_product",
    "schur_products",
    "schur_power_chain",
    "schur_power_chains",
    "fixed_point_structure",
    "SchurChainReport",
]


def schur_product(a: GCode, b: GCode) -> GCode:
    """Span of the pairwise componentwise products of basis rows:
    `schur_products([(a, b)])`, raising the product's error."""
    return _raised(schur_products([(a, b)])[0])


def schur_products(pairs: Sequence[tuple[GCode, GCode]]) -> list[GCode | Exception]:
    """The product of each pair, all formed by one step.  The codes share
    one group and field (ValueError otherwise).  A product that breaks the
    bound gets its VerificationError in its place, and one that is not an
    ideal the ValueError of its construction; the other products stand."""
    if not pairs:
        return []
    group, field = _shared([code for pair in pairs for code in pair])
    jobs = [(_rows(a), _rows(b), a == b) for a, b in pairs]
    return [_ideal(group, field, product) for product in _step(jobs, field, group.order)]


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
    return _raised(schur_power_chains([code], max_t)[0])


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

    Step t forms, in one `_step`, the product of every running chain's
    (t-1)-th power with its base (the square at t = 2), so a step holds
    every running chain's matrices at once: callers bound that by how many
    codes they pass.  A new power is checked for the bound, a decrease and,
    over F_2, the ascent (it contains the previous power), in that order.
    A repeat is found by the canonical reduced rows, which within one group
    and field is `GCode.key()`; only a power that is not a repeat gets a
    RowBasis, and a repeat's ascent is checked on the code it repeats.
    """
    if not codes:
        return []
    if any(code.is_zero() for code in codes):
        raise ValueError("power chain needs a nonzero code")
    group, field = _shared(codes)
    n, p = group.order, field.p
    max_t = 2 * n + 4 if max_t is None else max_t
    if max_t < 1:
        raise ValueError(f"max_t must be at least 1, not {max_t}")
    bases = [_rows(code) for code in codes]
    powers = list(bases)
    held = [[code] for code in codes]
    seen = [{base.tobytes(): 1} for base in bases]
    cycles: dict[int, int] = {}  # chain -> index of the first repeated power
    failed: dict[int, VerificationError] = {}
    running = list(range(len(codes)))
    t = 1
    while running and t < max_t:
        t += 1
        jobs = [(powers[i], bases[i], t == 2) for i in running]
        still = []
        for i, nxt in zip(running, _step(jobs, field, n)):
            if isinstance(nxt, VerificationError):
                failed[i] = nxt
                continue
            if len(nxt) < len(powers[i]):
                failed[i] = VerificationError("power dimension decreased along the chain")
                continue
            repeat = seen[i].get(nxt.tobytes())
            new = held[i][repeat - 1].basis if repeat else linalg.reduced_basis(nxt, field, n)
            if p == 2 and not new.contains_rows(held[i][-1].basis.matrix):
                failed[i] = VerificationError("binary power chain failed to ascend")
            elif repeat:
                cycles[i] = repeat
            else:
                seen[i][nxt.tobytes()] = t
                held[i].append(GCode(group, new))
                powers[i] = nxt
                still.append(i)
        running = still
    return [failed.get(i) or _report(chain, cycles.get(i)) for i, chain in enumerate(held)]


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


def _raised(outcome):
    """The outcome, raised when it is an error."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _shared(codes: Sequence[GCode]) -> tuple[Group, PrimeField]:
    """The group and field of the codes; ValueError when two codes differ."""
    group, field = codes[0].group, codes[0].field
    for code in codes:
        if not same_group(code.group, group):
            raise ValueError("codes live over different groups")
        if code.field != field:
            raise ValueError(f"modulus mismatch: {field.p} vs {code.field.p}")
    return group, field


def _step(jobs: list[tuple[np.ndarray, np.ndarray, bool]], field: PrimeField, n: int):
    """Yield each (left, right, square) job's product as its canonical RREF
    rows in the form and dtype of its right factor's rows (packed words over
    F_2), or the VerificationError of a product above the bound.  One
    reduction of a zero-padded stack holds every job's product rows and,
    when the job is not a square, [left; right] for the meet:
    linalg.f2_rref_stack over F_2, linalg.rref_stack otherwise."""
    p = field.p
    mats = []
    for left, right, square in jobs:
        mats.append(_products(left, right, p, square))
        if not square:
            mats.append(np.vstack([left, right]))
    stack = np.zeros((len(mats), max(map(len, mats)), mats[0].shape[1]), dtype=mats[0].dtype)
    for slot, m in enumerate(mats):
        stack[slot, : len(m)] = m
    reduced, ranks = linalg.f2_rref_stack(stack, n) if p == 2 else linalg.rref_stack(stack, field)
    rows = iter(reduced[slot, :rank] for slot, rank in enumerate(ranks.tolist()))
    for left, right, square in jobs:
        # a held power must not keep the stack, and its bytes key a repeat
        # only in its base's dtype
        product = next(rows).astype(right.dtype)
        d, k = len(left), len(right)
        meet = k if square else d + k - len(next(rows))
        cap = min(n, d * k - meet * (meet - 1) // 2)
        if len(product) > cap:
            product = VerificationError(f"product dimension {len(product)} exceeds the bound {cap}")
        yield product


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


def _rows(code: GCode) -> np.ndarray:
    """The code's basis rows as `_step` takes them: packed words over F_2."""
    return linalg.pack_f2(code.basis.matrix) if code.field.p == 2 else code.basis.matrix


def _ideal(group: Group, field: PrimeField, product) -> GCode | Exception:
    """The GCode of a product's rows, or the error that stops it."""
    if isinstance(product, VerificationError):
        return product
    try:
        return GCode(group, linalg.reduced_basis(product, field, group.order))
    except ValueError as exc:
        return exc


def fixed_point_structure(code: GCode) -> Subgroup:
    """Read off the subgroup a Schur-fixed code is induced from.

    A code closed under the componentwise product is spanned by the 0/1
    indicators of disjoint blocks, and a nonzero ideal has no zero column,
    so the identity's block is the set of columns of the canonical basis
    equal to column 0.  That block is certified to be a subgroup H whose
    coset-indicator span equals the code (`gcode.is_induced`), which also
    proves C*C = C.  Only a code failing the certificate is squared:
    ValueError when it is not Schur-fixed, VerificationError (a bug) when
    it is.
    """
    if code.is_zero():
        raise ValueError("the zero code has no fixed-point structure")
    basis = code.basis.matrix
    members = np.flatnonzero((basis == basis[:, :1]).all(axis=0)).tolist()
    try:
        sub = Subgroup(code.group, members)
    except ValueError:
        pass
    else:
        if is_induced(code, sub):
            return sub
    if schur_product(code, code) != code:
        raise ValueError("code is not fixed under its own Schur square")
    raise VerificationError(
        "Schur-fixed code is not the induced span of its identity block"
    )
