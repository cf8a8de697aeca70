"""Verifiers and witness extractors for the structure theory of G-codes.

Every function here either certifies a structural statement on a concrete
instance (returning witnesses/verdicts) or raises VerificationError when a
guaranteed property fails, which signals a bug rather than a data condition.
The verify_* drivers run exhaustive sweeps over all generators f of cyclic
ideals and aggregate failures into deterministic reports; they are the
machine-checkable form of the structure results.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import gcode as gc
from . import linalg, schur
from .errors import UnsupportedCover, VerificationError
from .ffield import PrimeField
from .galg import AlgElem, translate_weights
from .gcode import GCode
from .groups import Group, Subgroup, is_p_group, normal_p_complement, p_part


class UncertaintyResult(NamedTuple):
    weight: int
    rank: int
    cover_rank: int
    length: int


def uncertainty_checks(
    group: Group, field: PrimeField, coeffs, order: Sequence[int] | None = None
) -> list[UncertaintyResult | VerificationError]:
    """The checks of uncertainty_check on every row of a (B, |G|) coefficient
    array at once, with a row's VerificationError in place of its result.

    The multiplication matrices come from one scatter over group.table and
    the weights from one count.  The greedy walk along `order` runs over all
    rows together: each keeps a boolean cover of G, gathered at
    group.table[:, g], and keeps g when some x of its support has x*g
    uncovered.  Each matrix is ranked on its own, by linalg.f2_rank on its
    rows as Python ints over F_2 and by linalg.rank elsewhere, so that the
    rank stays independent of the sweeps' word-packed and stacked
    eliminations."""
    n, p = group.order, field.p
    coeffs = np.asarray(coeffs, dtype=np.int64) % p
    if coeffs.ndim != 2 or coeffs.shape[1] != n:
        raise ValueError(f"need rows of {n} coefficients, got shape {coeffs.shape}")
    support = coeffs != 0
    if not support.any(axis=1).all():
        raise ValueError("the zero element carries no support bound")
    order = range(n) if order is None else [int(g) for g in order]
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all element indices")
    # mats[b, x * g_j, j] = coeffs[b, x], f's multiplication matrix for row b
    mats = np.zeros((len(coeffs), n, n), dtype=np.min_scalar_type(p - 1))
    mats[:, group.table, np.arange(n)] = coeffs[:, :, None]
    weights = support.sum(axis=1)
    covered = np.zeros_like(support)
    lengths = np.zeros(len(coeffs), dtype=np.int64)
    for g in order:
        at = group.table[:, g]  # x -> x * g, a permutation of G
        lengths += (support & ~covered[:, at]).any(axis=1)
        covered[:, at] |= support
    if p == 2:
        # one Python int per row; np.packbits' bit order is a column
        # permutation, which leaves the rank alone
        packed = np.packbits(mats, axis=2)
        buf, width = packed.tobytes(), packed.shape[2]
        rows = [int.from_bytes(buf[i : i + width], "big") for i in range(0, len(buf), width)]
        ranks = [linalg.f2_rank(rows[lo : lo + n]) for lo in range(0, len(rows), n)]
    else:
        ranks = [linalg.rank(m, field) for m in mats]
    out: list[UncertaintyResult | VerificationError] = []
    for w, rho, t, cover in zip(
        weights.tolist(), ranks, lengths.tolist(), covered.all(axis=1).tolist()
    ):
        if not cover:
            out.append(VerificationError("greedy pass failed to cover the group"))
        elif t * w < n:
            out.append(VerificationError("greedy sequence shorter than the covering bound"))
        elif rho < t:
            out.append(VerificationError(f"rank {rho} below greedy escape length {t}"))
        elif w * rho < n:
            out.append(VerificationError(f"support-rank product {w * rho} below {n}"))
        else:
            out.append(UncertaintyResult(w, rho, t, n))
    return out


def uncertainty_check(f: AlgElem, order: Sequence[int] | None = None) -> UncertaintyResult:
    """Support size times multiplication rank is at least the group order,
    and the rank dominates the greedy escape length of the support.

    A batch of one through uncertainty_checks, the sweep's audit, raising its
    error: the rank of f's own multiplication matrix, by linalg.f2_rank over
    F_2 and linalg.rank elsewhere, independent of the sweeps' kernels."""
    (result,) = uncertainty_checks(f.group, f.field, f.coeffs[None], order)
    if isinstance(result, VerificationError):
        raise result
    return result


@dataclass(frozen=True)
class EqualityWitness:
    """Certificate that a code meets the distance-dimension bound exactly:
    the subgroup carrying the minimum-weight support, a generator supported
    on it, and (when the distance is invertible in the field) an idempotent
    generator."""

    subgroup: Subgroup
    generator: AlgElem
    idempotent: AlgElem | None


def equality_analysis(
    code: GCode, guard: int | None = None
) -> EqualityWitness | None:
    """Extract the subgroup structure of a code with d*k = |G|.

    Returns None when d*k > |G|.  Otherwise takes the minimum-weight
    codeword c whose identity coefficient is 1 (`min_weight_codeword`), so
    its support H contains the identity, then certifies that H is a
    subgroup, the code is generated by c, the ideal cKH is one-dimensional,
    and (over a p-group in characteristic p) the code is the induced span of
    H-coset indicators; elsewhere that induced span meets d*k = |G| as well.
    All but the last are read from c's multiplication matrix M: c lies in
    the code, so it generates the code exactly when rank M = k, and cKH is
    a line exactly when M restricted to H x H has rank 1.  Whether the code
    is the induced span is `gcode.is_induced`; only a code that is not
    builds the span, for its parameters.
    """
    if code.is_zero():
        raise ValueError("equality analysis needs a nonzero code")
    group, field = code.group, code.field
    n, k = code.length, code.dim
    c = code.min_weight_codeword(guard=guard)
    d = c.weight()
    if d * k != n:
        if d * k < n:
            raise VerificationError("distance-dimension product fell below length")
        return None
    members = sorted(c.support())
    try:
        sub = Subgroup(group, members)
    except ValueError:
        raise VerificationError("minimum-weight support is not a subgroup") from None
    m = c.multiplication_matrix()
    if linalg.rank(m, field) != k:
        raise VerificationError("minimum-weight word fails to regenerate the code")
    if linalg.rank(m[np.ix_(members, members)], field) != 1:
        raise VerificationError("restriction of the generator ideal is not a line")
    if not gc.is_induced(code, sub):
        if is_p_group(group, field.p):
            raise VerificationError(
                "p-group equality code is not the induced indicator span"
            )
        # k = [G:H] = dim C, so the guard passes the induced code as it did the ideal
        if not gc.trivial_induced(group, field, sub).params(guard=guard).equality:
            raise VerificationError("induced code misses the bound")
    e = idempotent_generator(code, sub, c)
    return EqualityWitness(sub, c, e)


def idempotent_generator(code: GCode, sub: Subgroup, c: AlgElem) -> AlgElem | None:
    """Idempotent generator of the code, existing exactly when the field
    characteristic does not divide the subgroup order.

    The square of the generator is a scalar multiple mu * c; when p divides
    |H| that scalar must vanish (or an idempotent generator would exist),
    and otherwise e = mu^{-1} c is the idempotent.  It generates the code
    exactly when it lies in the code and its multiplication matrix has rank
    dim C.
    """
    field = code.field
    cc = c.convolve(c)
    pos = min(c.support())
    mu = field.mul(int(cc.coeffs[pos]), field.inv(int(c.coeffs[pos])))
    if cc != c.scale(mu):
        raise VerificationError("generator square left the line it generates")
    if len(sub) % field.p == 0:
        if mu != 0:
            raise VerificationError(
                "nonzero square scalar would yield a forbidden idempotent"
            )
        return None
    if mu == 0:
        raise VerificationError("semisimple restriction produced a nilpotent line")
    e = c.scale(field.inv(mu))
    if e.convolve(e) != e:
        raise VerificationError("candidate idempotent fails e*e = e")
    if not code.contains(e) or linalg.rank(e.multiplication_matrix(), field) != code.dim:
        raise VerificationError("idempotent generates a different ideal")
    return e


@dataclass(frozen=True)
class ProjectiveCoverResult:
    """The cover of the trivial module inside the algebra, with the case that
    produced it: semisimple (p coprime to |G|), p-group (whole algebra), or
    p-nilpotent (induced from a normal p-complement)."""

    code: GCode
    method: str


def projective_cover_trivial(group: Group, field: PrimeField) -> ProjectiveCoverResult:
    """The span of the right-coset indicators of the normal p-complement H,
    which is G when p does not divide |G| and {1} when G is a p-group."""
    p = field.p
    comp = normal_p_complement(group, p)
    if comp is None:
        raise UnsupportedCover(
            f"no computable cover for {group.name} at p={p}: "
            "not semisimple, not a p-group, no normal p-complement"
        )
    cover = gc.trivial_induced(group, field, comp)
    if len(comp) == group.order:  # first, for the trivial group
        method = "semisimple"
    else:
        method = "p-group" if len(comp) == 1 else "p-nilpotent"
    sums = cover.basis.matrix.sum(axis=1) % p
    if cover.dim and not np.any(sums):
        raise VerificationError("cover collapsed into the augmentation kernel")
    return ProjectiveCoverResult(cover, method)


def schur_square_theorem_check(code: GCode) -> dict:
    """Check every applicable statement tying the Schur square to
    self-orthogonality; returns the fired clauses."""
    if code.is_zero():
        raise ValueError("needs a nonzero code")
    return _square_clauses(code, schur.schur_product(code, code))


def _square_clauses(code: GCode, square: GCode) -> dict:
    """The clauses of schur_square_theorem_check, on a square already formed."""
    group = code.group
    n, k, p = code.length, code.dim, code.field.p
    so = code.is_self_orthogonal()
    pgrp = is_p_group(group, p)
    clauses: list[str] = []
    if not so:
        clauses.append("cover_dim_lower_bound")
        if square.dim < p_part(group, p):
            raise VerificationError(
                f"square dimension {square.dim} below the p-part {p_part(group, p)}"
            )
        if pgrp:
            clauses.append("p_group_square_full")
            if square.dim != n:
                raise VerificationError("non-self-orthogonal square is not everything")
    else:
        clauses.append("self_orthogonal_square_proper")
        if square.dim >= n:
            raise VerificationError("self-orthogonal square filled the algebra")
    if pgrp and k * (k + 1) < 2 * n:
        clauses.append("small_dim_forces_self_orthogonal")
        if not so:
            raise VerificationError(
                f"dimension {k} is below the self-orthogonality threshold yet "
                "the code is not self-orthogonal"
            )
    return {
        "self_orthogonal": so,
        "square_dim": square.dim,
        "clauses": clauses,
        "ok": True,
    }


def solv_check(code: GCode) -> dict:
    """Binary biconditional between "the square is the trivial cover" and
    "the code lies inside the cover".

    Applies to codes that are not self-orthogonal (self-orthogonal inputs are
    reported as inapplicable, not asserted: the all-ones span sits inside the
    cover with a strictly smaller square).
    """
    if code.field.p != 2:
        raise ValueError("this biconditional is specific to the binary field")
    cover = projective_cover_trivial(code.group, code.field)
    p0 = cover.code
    square_is_cover = schur.schur_product(code, code) == p0
    code_in_cover = code.issubset(p0)
    applicable = not code.is_self_orthogonal()
    if applicable and square_is_cover != code_in_cover:
        raise VerificationError(
            f"biconditional failed: square_is_cover={square_is_cover}, "
            f"code_in_cover={code_in_cover}"
        )
    return {
        "cover_method": cover.method,
        "applicable": applicable,
        "square_is_cover": square_is_cover,
        "code_in_cover": code_in_cover,
        "ok": True,
    }


# --- exhaustive sweeps -------------------------------------------------------
#
# A sweep walks generators f in F_p^G, each named by its index: the digits of
# the index in base p, little-endian, are the coefficients of f.
#
# Orbit pruning.  c*f*g generates the same right ideal as f for every scalar
# c != 0 and every g in G, so an exhaustive sweep eliminates only the orbit
# minima (the orbit pass): one translate matrix per minimum, row j = f*g_j,
# reduced in batches by _reduce -- over odd p as a stack of byte-sized digits
# (for p < 257), over F_2 as packed words, digits @ galg.translate_weights,
# with no (batch, n, n) stack.  Over a p-group F_p[G] is local, its maximal
# ideal the augmentation ideal, so the f with nonzero coefficient sum are
# units: _units marks them, they get rank |G| uneliminated, and the whole
# algebra enters the ideal list once, under the first of them.  The bytes of
# each other reduced matrix key the deduplication (the RREF is unique), and
# _eliminate makes each kept ideal a GCode as it first meets it, so no kernel
# rows leave it.  The generators of an ideal form a union of orbits, so its
# smallest generator -- the tag the sweeps report -- is an orbit minimum and
# the tags are those of an unpruned sweep.  Sampled sweeps eliminate the
# sampled generators themselves (units excepted), with no orbit pass over all
# p^n indices.
#
# Orbit minima by digit-block lookup.  A table gives n maps of coordinates:
# map j moves coordinate x of f to table[x, j], so group.table gives
# f -> f*g_j ((f*g)[x*g] = f[x]).  The index of c times f moved by map j is
# linear in the digits of f's index: a sum over blocks of s digits (s the
# largest with p^s <= _TABLE_SIZE) of a term that depends on that block's
# value alone.  _orbit_tables holds, per block, that term for every block
# value and every (map, c) pair.  The orbit pass walks aligned chunks, the p^s
# indices that share one value of the higher blocks: across a chunk those
# add one constant row, so a chunk is the lowest block's table plus that row
# (int32 when p^n < 2^31), a row minimum and a compare, which keeps the
# indices that no column maps lower.  _minimum_of looks scattered indices up
# block by block.  No array over all p^n indices is formed.
#
# One orbit pass, read through the involution.  The uncertainty sweep's
# weight, rank, greedy escape lengths and cover verdicts are constant on the
# orbits of f -> c*g*f: supp(g*f*g_j) = g*supp(f*g_j), x -> g*x is a bijection
# of G, and it maps fF[G] onto g*fF[G].  (Under f -> f*g the greedy lengths
# are not, on a non-abelian group.)  The anti-automorphism f* = sum f(x) x^-1
# maps them onto the orbit pass's orbits, (c*g*f)* = c*f* *g^-1, so the m* of
# its minima m meet each once; and dim m*F[G] = dim F[G]m = dim mF[G], as
# F[G] is a symmetric algebra.  So the exhaustive sweep checks m* at m's
# rank, its masks formed from m's digits with translate_weights' rows
# permuted by the inverse.  A failing m* is reported at every f of its
# orbit, the indices of (c*m*g_j)*, read off the table inverse[table];
# `checked` counts all p^n - 1.
#
# Greedy escape lengths work on bit-packed translate supports, one int64 word
# per 64 columns: word w of the support mask of f * g_j, formed per chunk as
# (support indicators) @ W[w] with W = galg.translate_weights(group).
# Distinct supports never collide inside one translate, so OR equals SUM and
# one integer matmul per word serves.  The weight of f is the popcount of its
# identity column.  A sweep not given the orbit pass's ranks ranks each chunk
# through _reduce, whose F_2 elimination reads a copy of the same words.
# Along a greedy order, one cumulative OR gives the union of the translates
# seen so far; g is kept exactly when the union changes at g in some word, and
# the translates cover the group when the last union is the full mask.
#
# Audit.  Every _CROSSCHECK_STRIDE-th f is re-derived, the audited f of a
# chunk (_AUDIT_BATCH at a time) in one uncertainty_checks call, which shares
# no code with the fast path: one scatter over group.table builds their
# multiplication matrices, one count their weights, and the natural-order
# greedy walk runs over all of them on boolean cover arrays; each matrix is
# ranked alone, by linalg.f2_rank on Python-int rows over F_2 and by
# linalg.rank elsewhere.  These must equal the fast values at m* for m the
# orbit minimum of f*, read off the table table[inverse] of f -> f* *g_j (at
# f itself when sampled), so the exhaustive audit also tests the invariance
# and the involution.
#
# One ideal list, one squaring path.  verify_all runs the orbit pass once for
# the uncertainty sweep and the enumeration, whose ideal list the bound,
# equality and Schur sections share; a section given no list enumerates every
# cyclic ideal in _listed.  search sweep's sweep_report takes its list from
# the same enumerate_cyclic_ideals, sampled or not.  It and verify_schur read
# every Schur square off one generator, _chains, which runs the power chains
# of _CHAIN_BATCH ideals at a time through schur.schur_power_chains: to the
# end over F_2 in verify_schur, to the square elsewhere and in the sweep.

_SWEEP_CHUNK = 1 << 10
_TABLE_SIZE = 1 << 10  # rows of a digit-block lookup table, at most, so p <= it
_SHUFFLE_SEED = 0  # the second greedy order is this seed's permutation
_CROSSCHECK_STRIDE = 997  # every f with index divisible by it is re-derived
_AUDIT_BATCH = 256  # audited f per uncertainty_checks call: bounds its matrix stack


_Tables = list[tuple[int, int, np.ndarray]]  # digit-block lookup tables, see _orbit_tables


class SweepOrbits(NamedTuple):
    """Orbit pass of an exhaustive sweep over F_p[G], under f -> c*f*g.

    minima lists the nonzero orbit minima in ascending order and ranks holds
    dim fF[G] at each; ideals lists each distinct nonzero cyclic ideal once,
    as (smallest generator index, GCode), in order of that index.  Over a
    p-group the units are not eliminated: their rank is |G|, and the whole
    algebra, under index 1, is the GCode of the identity basis.
    """

    minima: np.ndarray
    ranks: np.ndarray
    ideals: list[tuple[int, GCode]]


def _generator_digits(idx: np.ndarray, n: int, p: int) -> np.ndarray:
    """Digit vectors of int64 indices, or of Python-int indices held in an
    object array (sampled sweeps past int64)."""
    digits = (idx[:, None] // p ** np.arange(n, dtype=idx.dtype)) % p
    return digits.astype(np.int64, copy=False)


def _sample_indices(n: int, p: int, sample: int, seed: int) -> np.ndarray:
    """`sample` generator indices in [1, p^n), drawn with replacement, in
    ascending order.  When p^n - 1 does not fit in int64 the digit vectors
    are drawn instead (nonzero ones) and the indices are Python ints in an
    object array."""
    if sample < 1:
        raise ValueError(f"a sample needs at least one generator, not {sample}")
    rng = np.random.default_rng(seed)
    if p**n <= 1 << 63:
        return np.sort(rng.integers(1, p**n, size=sample, dtype=np.int64))
    digits = rng.integers(0, p, size=(sample, n))
    while (zero := ~digits.any(axis=1)).any():
        digits[zero] = rng.integers(0, p, size=(int(zero.sum()), n))
    return np.sort(digits.astype(object) @ p ** np.arange(n, dtype=object))


def _translate_index(group: Group) -> np.ndarray:
    """Row j maps x to x * g_j^(-1): digits[:, translate] stacks the translate
    matrices, row j of f's holding the coefficients of f * g_j."""
    return group.table[:, group.inverse].T


def _units(digits: np.ndarray, group: Group, p: int) -> np.ndarray:
    """Which f of a chunk are units, known without elimination.  Over a
    p-group F_p[G] is a local ring whose maximal ideal is the augmentation
    ideal, so f is a unit, of rank |G|, exactly when its coefficient sum is
    nonzero mod p.  None is marked on any other group."""
    if not is_p_group(group, p):
        return np.zeros(len(digits), dtype=bool)
    return digits.sum(axis=1) % p != 0


def _reduce(
    digits: np.ndarray,
    masks: np.ndarray | None,
    translate: np.ndarray,
    group: Group,
    field: PrimeField,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One chunk's elimination: (reduced, ranks, units).  ranks holds dim
    fF[G] for each f, |G| at the units that _units marks; reduced holds the
    canonical RREF of the translate matrix of each other f, in order, and
    only those are eliminated.  Over F_2 row j is the support mask of f*g_j,
    so a copy of their mask words masks[w, f, j] is reduced by
    linalg.f2_rref_stack; over odd p their digit stack, gathered at the
    narrowest dtype that holds a digit, goes to linalg.rref_stack."""
    units = _units(digits, group, field.p)
    rest = ~units
    ranks = np.full(len(digits), len(translate), dtype=np.int64)
    if field.p == 2:  # the words of pack_f2, (f, j, w), which it reduces in place
        words = masks.compress(rest, axis=1).transpose(1, 2, 0).view(np.uint64)
        reduced, ranks[rest] = linalg.f2_rref_stack(words, len(translate))
    else:
        stack = digits[rest].astype(np.min_scalar_type(field.p - 1))[:, translate]
        reduced, ranks[rest] = linalg.rref_stack(stack, field)
    return reduced, ranks, units


def _eliminate(
    indices: np.ndarray, group: Group, field: PrimeField
) -> tuple[np.ndarray, list[tuple[int, GCode]]]:
    """Ranks of the ideals generated by the given ascending generator indices,
    and the distinct ideals among them as (first index, GCode).  The bytes of
    _reduce's rows key the dedupe; the first time an ideal is met,
    linalg.reduced_basis makes its rows a basis, so no kernel rows leave
    here.  The units all generate the whole algebra and no other f does, so
    it enters once, at the first unit, as the GCode of the identity basis;
    the dedupe loop runs over the eliminated f alone."""
    n, p = group.order, field.p
    translate, weights = _translate_index(group), translate_weights(group)
    ranks = np.empty(len(indices), dtype=np.int64)
    seen: set[bytes] = set()
    ideals: list[tuple[int, GCode]] = []
    whole = None  # the first unit's index
    for lo in range(0, len(indices), _SWEEP_CHUNK):
        idx = indices[lo : lo + _SWEEP_CHUNK]
        digits = _generator_digits(idx, n, p)
        # over F_2 the digits are the support indicators
        reduced, rk, units = _reduce(
            digits, digits @ weights if p == 2 else None, translate, group, field
        )
        ranks[lo : lo + len(idx)] = rk
        if whole is None and units.any():
            whole = int(idx[units.argmax()])
        rest = ~units
        for j, (fidx, k) in enumerate(zip(idx[rest].tolist(), rk[rest].tolist())):
            rows = reduced[j, :k]
            key = rows.tobytes()
            if key not in seen:
                seen.add(key)
                ideals.append((fidx, GCode(group, linalg.reduced_basis(rows, field, n))))
    if whole is not None:  # in tag order, among the ascending tags
        full = GCode(group, linalg.RowBasis(np.eye(n, dtype=np.int64), range(n), field))
        bisect.insort(ideals, (whole, full), key=lambda ideal: ideal[0])
    return ranks, ideals


def _orbit_tables(table: np.ndarray, p: int) -> _Tables:
    """Digit-block lookup tables of the maps whose table is given, one per
    block of s digits (the last block may be shorter), as (p^first digit,
    p^width, block table).  Block table[v, (c - 1) * n + j] is the block's
    part of the index of c times f moved by map j: the sum over its digits
    x of (c * digit_x(v) mod p) * p^table[x, j].  A one-digit table has p
    rows of (p - 1) * n entries, so p past _TABLE_SIZE is refused, and so is
    p^n past 2^63, whose indices and block terms int64 does not hold."""
    n = len(table)
    if p > _TABLE_SIZE:
        raise ValueError(f"exhaustive sweeps need p <= {_TABLE_SIZE}, not {p}")
    if p**n > 1 << 63:
        raise ValueError(f"exhaustive sweeps need p^|G| <= 2^63, not {p}^{n}")
    s = 1
    while p ** (s + 1) <= _TABLE_SIZE:
        s += 1
    tables = []
    for first in range(0, n, s):
        width = min(s, n - first)
        digits = _generator_digits(np.arange(p**width, dtype=np.int64), width, p)
        weights = p ** table[first : first + width].astype(np.int64)
        block = np.hstack([(c * digits) % p @ weights for c in range(1, p)])
        tables.append((p**first, p**width, block))
    return tables


def _lookup(idx: np.ndarray, tables: _Tables) -> np.ndarray:
    """Per index, the sum over blocks of the table row at its block value."""
    return sum(table[(idx // step) % size] for step, size, table in tables)


def _minimum_of(idx: np.ndarray, tables: _Tables) -> np.ndarray:
    """The smallest index each index is moved to by the tables' maps,
    looked up one chunk at a time.  Under group.table that is its orbit
    minimum: the identity translate at c = 1 keeps it among the candidates."""
    out = np.empty_like(idx)
    for lo in range(0, len(idx), _SWEEP_CHUNK):
        out[lo : lo + _SWEEP_CHUNK] = _lookup(idx[lo : lo + _SWEEP_CHUNK], tables).min(axis=1)
    return out


def _orbit_minima(table: np.ndarray, p: int) -> np.ndarray:
    """The nonzero orbit minima of the action whose table is given, in
    ascending order; see the comment block above."""
    tables, total = _orbit_tables(table, p), p ** len(table)
    dtype = np.int32 if total < 1 << 31 else np.int64
    tables = [(step, sz, t.astype(dtype)) for step, sz, t in tables]
    (_, size, low), high = tables[0], tables[1:]
    idx = np.arange(size, dtype=dtype)
    moved, least = np.empty_like(low), np.empty_like(idx)  # reused by every chunk
    minima = []
    for base in range(0, total, size):
        # the higher blocks hold one value across the chunk, so one row is
        # added, less base: index base + v is a minimum where least[v] == v
        np.add(low, sum(t[(base // step) % sz] for step, sz, t in high) - base, out=moved)
        moved.min(axis=1, out=least)
        minima.append(base + np.flatnonzero(least == idx))
    return np.concatenate(minima)[1:]  # index 0, the zero element, leads the first chunk


def sweep_orbits(group: Group, field: PrimeField) -> SweepOrbits:
    """The orbit minima of f -> c*f*g, their ranks and the distinct ideals
    they generate; see the comment block above."""
    minima = _orbit_minima(group.table, field.p)
    return SweepOrbits(minima, *_eliminate(minima, group, field))


def _greedy_lengths(
    masks: np.ndarray, order: np.ndarray, full: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy escape length along `order` of each f, from its translate masks
    masks[w, f, j] (word w of f * g_j), and whether the kept translates cover
    the group, whose mask words are `full`."""
    union = np.bitwise_or.accumulate(masks[:, :, order], axis=2)
    grew = (union[:, :, 1:] != union[:, :, :-1]).any(axis=0)
    t = (union[:, :, 0] != 0).any(axis=0) + grew.sum(axis=1)
    return t, (union[:, :, -1] == full[:, None]).all(axis=0)


def verify_uncertainty(
    group: Group,
    field: PrimeField,
    sample: int | None = None,
    sample_seed: int = 0,
    orbits: SweepOrbits | None = None,
) -> dict:
    """Sweep all nonzero f: support size times ideal dimension reaches |G|,
    and both greedy escape lengths stay below the rank.

    Exhaustive mode checks m* for each minimum m of the orbit pass, which
    meets every orbit of f -> c*g*f once, at the rank of m: from `orbits`
    when given, else from _reduce one chunk at a time, with no ideal list.
    Sampled mode ranks each sampled f by eliminating its translate matrix,
    units aside (_reduce).
    Every _CROSSCHECK_STRIDE-th f is re-verified through uncertainty_checks;
    see the comment block above.
    """
    n, p = group.order, field.p
    W = translate_weights(group)
    full = np.bitwise_or.reduce(W, axis=(1, 2))
    shuffled = random.Random(_SHUFFLE_SEED).sample(range(n), n)
    translate = _translate_index(group)
    if sample is None:
        if orbits is None:
            picks, ranks = _orbit_minima(group.table, p), None
        else:
            picks, ranks = orbits.minima, orbits.ranks
        W = W[:, group.inverse]  # the masks of m* from the digits of m
        audit = np.arange(_CROSSCHECK_STRIDE, p**n, _CROSSCHECK_STRIDE, dtype=np.int64)
        star = _orbit_tables(group.table[group.inverse], p)  # f -> f* *g_j
        at = np.searchsorted(picks, _minimum_of(audit, star))  # the minimum of f*
        order = np.argsort(at, kind="stable")
        audit, at = audit[order], at[order]
        checked = p**n - 1
    else:
        picks, ranks = _sample_indices(n, p, sample, sample_seed), None
        at = np.flatnonzero(picks % _CROSSCHECK_STRIDE == 0)
        audit, checked = picks[at], len(picks)
    failures: list[tuple[int, str]] = []
    orbit_of = None
    for lo in range(0, len(picks), _SWEEP_CHUNK):
        idx = picks[lo : lo + _SWEEP_CHUNK]
        digits = _generator_digits(idx, n, p)
        masks = (digits != 0).astype(np.int64) @ W
        if ranks is None:
            rk = _reduce(digits, masks, translate, group, field)[1]
        else:
            rk = ranks[lo : lo + _SWEEP_CHUNK]
        # column 0, the identity translate, is f's own mask; bit 63 of a word
        # is the int64 sign bit, so the words are counted as uint64
        weights = np.bitwise_count(masks[:, :, 0].view(np.uint64)).sum(axis=0, dtype=np.int64)
        t_nat, cov_nat = _greedy_lengths(masks, np.arange(n), full)
        t_shuf, cov_shuf = _greedy_lengths(masks, shuffled, full)
        covers = cov_nat & cov_shuf
        bad = ~covers | (rk < t_nat) | (rk < t_shuf) | (weights * rk < n)
        for j in np.flatnonzero(bad).tolist():
            if not covers[j]:
                reason = "mask pass failed to cover the group"
            elif rk[j] < t_nat[j] or rk[j] < t_shuf[j]:
                reason = f"rank {rk[j]} below greedy lengths {t_nat[j]}/{t_shuf[j]}"
            else:
                reason = f"product {weights[j] * rk[j]} below {n}"
            if sample is None and orbit_of is None:  # m -> (c*m*g_j)*, read only here
                orbit_of = _orbit_tables(group.inverse[group.table], p)
            orbit = [idx[j]] if sample is not None else np.unique(_lookup(idx[j : j + 1], orbit_of))
            failures += [(f, reason) for f in orbit]
        ks = np.arange(*np.searchsorted(at, [lo, lo + len(idx)]))
        ks = ks[~bad[at[ks] - lo]]  # a bad f is reported above, at every f of its orbit
        for a in range(0, len(ks), _AUDIT_BATCH):
            batch = ks[a : a + _AUDIT_BATCH]
            refs = uncertainty_checks(group, field, _generator_digits(audit[batch], n, p))
            for k, ref in zip(batch.tolist(), refs):
                j = at[k] - lo
                w, rho = int(weights[j]), int(rk[j])
                if isinstance(ref, VerificationError):
                    reason = str(ref)
                elif (ref.weight, ref.rank) != (w, rho):
                    reason = (
                        f"fast path disagrees with matrix path: "
                        f"{(w, rho)} vs {(ref.weight, ref.rank)}"
                    )
                elif ref.cover_rank != t_nat[j]:
                    reason = (
                        f"mask greedy length {t_nat[j]} disagrees with the "
                        f"greedy walk {ref.cover_rank}"
                    )
                else:
                    continue
                failures.append((audit[k], reason))
    failures.sort(key=lambda rec: rec[0])
    return _report(group, field, checked, [{"f": int(f), "reason": r} for f, r in failures])


def _report(group: Group, field: PrimeField, checked: int, failures: list, **extra) -> dict:
    """A sweep's report: what it swept, how many items it checked, one record
    per failure, and any further fields."""
    return {"group": group.name, "p": field.p, "checked": checked, "failures": failures, **extra}


def enumerate_cyclic_ideals(
    group: Group,
    field: PrimeField,
    sample: int | None = None,
    sample_seed: int = 0,
    orbits: SweepOrbits | None = None,
) -> list[tuple[int, GCode]]:
    """Deduplicated single-generator ideals, tagged by the smallest generator
    index, in order of that index.

    Exhaustive mode eliminates one generator per orbit of f -> c*f*g (taken
    from `orbits`, computed here when not given); the tags equal those of a
    generator-by-generator sweep because the generators of an ideal form a
    union of orbits.  Sampled mode draws `sample` indices (with replacement)
    and eliminates exactly those, batched like the orbit minima.
    """
    if sample is None:
        return (orbits if orbits is not None else sweep_orbits(group, field)).ideals
    picks = _sample_indices(group.order, field.p, sample, sample_seed)
    return _eliminate(picks, group, field)[1]


def _listed(
    group: Group, field: PrimeField, ideals: list[tuple[int, GCode]] | None
) -> list[tuple[int, GCode]]:
    """The given ideal list, or every cyclic ideal when None."""
    return enumerate_cyclic_ideals(group, field) if ideals is None else ideals


def _each_ideal(
    group: Group, field: PrimeField, items: Iterable[tuple], check: Callable[..., None]
) -> dict:
    """Run check(*rest) on each (generator index, *rest) item, rest being an
    ideal's GCode and whatever the caller pairs with it, and report each
    VerificationError under the generator index."""
    checked = 0
    failures: list[dict] = []
    for fidx, *item in items:
        checked += 1
        try:
            check(*item)
        except VerificationError as exc:
            failures.append({"f": fidx, "reason": str(exc)})
    return _report(group, field, checked, failures)


def verify_bound(
    group: Group,
    field: PrimeField,
    guard: int | None = None,
    ideals: list[tuple[int, GCode]] | None = None,
) -> dict:
    """Every cyclic ideal satisfies the product and sum bounds; over a binary
    2-group every proper ideal has even minimum distance."""
    even_rule = field.p == 2 and is_p_group(group, 2)

    def check(code: GCode) -> None:
        rep = code.params(guard=guard)
        if even_rule and code.dim < group.order and rep.distance % 2 != 0:
            raise VerificationError(
                f"proper binary 2-group ideal has odd distance {rep.distance}"
            )

    return _each_ideal(group, field, _listed(group, field, ideals), check)


def verify_equality(
    group: Group,
    field: PrimeField,
    guard: int | None = None,
    ideals: list[tuple[int, GCode]] | None = None,
) -> dict:
    """The equality witnesses exist exactly on the d*k = |G| ideals, induced
    spans round-trip, and idempotents appear exactly off the characteristic."""

    def check(code: GCode) -> None:
        rep = code.params(guard=guard)
        witness = equality_analysis(code, guard=guard)
        if (witness is not None) != rep.equality:
            raise VerificationError(
                f"witness presence {witness is not None} mismatches "
                f"equality flag {rep.equality}"
            )
        if witness is not None:
            has_e = witness.idempotent is not None
            if has_e != (rep.distance % field.p != 0):
                raise VerificationError(
                    "idempotent presence disagrees with the distance residue"
                )

    return _each_ideal(group, field, _listed(group, field, ideals), check)


_PAIRWISE_PRODUCT_CAP = 8  # group order up to which all ideal pairs are multiplied
_CHAIN_BATCH = 16  # ideals whose power chains run together: bounds the stacks and powers held
_PAIR_BATCH = 256  # ideal pairs whose products are formed together: bounds the stack


def _chains(
    ideals: Sequence[tuple[int, GCode]], max_t: int | None
) -> Iterator[tuple[int, GCode, schur.ChainOutcome]]:
    """(generator index, code, power chain or its VerificationError) for each
    listed ideal, in order.  schur.schur_power_chains runs the chains of
    _CHAIN_BATCH ideals at a time, each to at most max_t codes; a batch's
    reports hold every power of its chains until the next batch."""
    for lo in range(0, len(ideals), _CHAIN_BATCH):
        batch = ideals[lo : lo + _CHAIN_BATCH]
        chains = schur.schur_power_chains([code for _, code in batch], max_t=max_t)
        for (fidx, code), chain in zip(batch, chains):
            yield fidx, code, chain


def verify_schur(
    group: Group,
    field: PrimeField,
    ideals: list[tuple[int, GCode]] | None = None,
) -> dict:
    """Schur-square clauses on every cyclic ideal, fixed-point extraction on
    the Schur-fixed ones, chain stabilization over F_2, and (on small groups)
    closure of every pairwise product.

    Each ideal gets one power chain from _chains, to the end over F_2 and to
    the square elsewhere.  A chain that stops at once with period 1 has met a
    Schur-fixed code, whose square is itself.  The pairwise products go
    through schur.schur_products, _PAIR_BATCH pairs at a time; each is
    checked against the dimension bound and for being an ideal, and a
    failure is reported under the pair's two generator indices."""
    ideals = _listed(group, field, ideals)
    binary = field.p == 2

    def check(code: GCode, chain: schur.ChainOutcome) -> None:
        if isinstance(chain, VerificationError):
            raise chain
        fixed = len(chain.codes) == 1
        _square_clauses(code, code if fixed else chain.codes[1])
        if fixed and len(chain.stabilizer_subgroup) * code.dim != group.order:
            raise VerificationError("Schur-fixed code misses the product equality")
        if binary and (not chain.complete or chain.period != 1):
            raise VerificationError("binary chain failed to stabilize")

    report = _each_ideal(group, field, _chains(ideals, None if binary else 2), check)
    if group.order <= _PAIRWISE_PRODUCT_CAP:
        pairs = [((fi, fj), (a, b)) for i, (fi, a) in enumerate(ideals) for fj, b in ideals[i:]]
        for lo in range(0, len(pairs), _PAIR_BATCH):
            batch = pairs[lo : lo + _PAIR_BATCH]
            for (f, _), product in zip(batch, schur.schur_products([ab for _, ab in batch])):
                if isinstance(product, Exception):
                    report["failures"].append({"f": f, "reason": f"pairwise product: {product}"})
            report["checked"] += len(batch)
    return report


def verify_all(group: Group, field: PrimeField, guard: int | None = None) -> dict:
    """All four sweeps, sharing one orbit pass and one ideal enumeration."""
    orbits = sweep_orbits(group, field)
    uncertainty = verify_uncertainty(group, field, orbits=orbits)
    ideals = enumerate_cyclic_ideals(group, field, orbits=orbits)
    sections = {
        "uncertainty": uncertainty,
        "bound": verify_bound(group, field, guard=guard, ideals=ideals),
        "equality": verify_equality(group, field, guard=guard, ideals=ideals),
        "schur": verify_schur(group, field, ideals=ideals),
    }
    failures = [
        dict(section=name, **f) for name, rep in sections.items() for f in rep["failures"]
    ]
    checked = sum(rep["checked"] for rep in sections.values())
    return _report(group, field, checked, failures, sections=sections)


def sweep_report(
    group: Group,
    field: PrimeField,
    sample: int | None = None,
    sample_seed: int = 0,
    guard: int | None = None,
) -> list[dict]:
    """One row per distinct cyclic ideal (a seeded sample's when `sample`):
    parameters, bound ratio, self-orthogonality, and the Schur-square
    dimension, the last power of its chain to the square from _chains (a
    Schur-fixed code's chain holds the code alone); sorted by descending
    ratio with deterministic tie-breaks.  Each ideal in turn raises its
    params' error, then its chain's."""
    ideals = enumerate_cyclic_ideals(group, field, sample=sample, sample_seed=sample_seed)
    rows = []
    for fidx, code, chain in _chains(ideals, max_t=2):
        rep = code.params(guard=guard)  # raises when d*k < |G|
        if isinstance(chain, VerificationError):
            raise chain
        rows.append(
            {
                "generator_index": fidx,
                "k": rep.dimension,
                "d": rep.distance,
                "product": rep.product,
                "ratio": rep.product / group.order,
                "self_orthogonal": code.is_self_orthogonal(),
                "square_dim": chain.dims[-1],
            }
        )
    rows.sort(key=lambda r: (-r["ratio"], r["k"], r["generator_index"]))
    return rows
