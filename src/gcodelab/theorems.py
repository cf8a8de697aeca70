"""Verifiers and witness extractors for the structure theory of G-codes.

Every function here either certifies a structural statement on a concrete
instance (returning witnesses/verdicts) or raises VerificationError when a
guaranteed property fails, which signals a bug rather than a data condition.
The verify_* drivers run exhaustive sweeps over all generators f of cyclic
ideals and aggregate failures into deterministic reports; they are the
machine-checkable form of the structure results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TypeVar

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


def greedy_support_rank(
    group: Group, support, order: Sequence[int] | None = None
) -> tuple[int, list[int]]:
    """Greedy escape sequence for the translates of a support set.

    Walks `order` and keeps g whenever (support)g escapes the union of the
    translates kept so far.  The kept sequence has escape length t, the union
    covers the whole group, and t >= ceil(|G| / |support|).
    """
    supp = sorted({int(s) for s in support})
    if not supp:
        raise ValueError("support must be nonempty")
    n = group.order
    if order is None:
        order = range(n)
    order = [int(g) for g in order]
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of all element indices")
    supp_arr = np.array(supp, dtype=np.int64)
    covered = np.zeros(n, dtype=bool)
    seq: list[int] = []
    for g in order:
        translate = group.table[supp_arr, g]
        if not covered[translate].all():
            covered[translate] = True
            seq.append(g)
    if not covered.all():
        raise VerificationError("greedy pass failed to cover the group")
    t = len(seq)
    if t * len(supp) < n:
        raise VerificationError("greedy sequence shorter than the covering bound")
    return t, seq


def uncertainty_check(f: AlgElem, order: Sequence[int] | None = None) -> UncertaintyResult:
    """Support size times multiplication rank is at least the group order,
    and the rank dominates the greedy escape length of the support.

    The rank is that of f's own multiplication matrix, taken by linalg.rank,
    or over F_2 by linalg.f2_rank on its rows as Python ints, so that it
    stays independent of the sweeps' word-packed elimination and tables."""
    if f.is_zero():
        raise ValueError("the zero element carries no support bound")
    n = f.group.order
    w = f.weight()
    m = f.multiplication_matrix()
    if f.field.p == 2:
        # one Python int per row; the bit order is a column permutation,
        # which leaves the rank alone
        rho = linalg.f2_rank(int("".join(map(str, row)), 2) for row in m.tolist())
    else:
        rho = linalg.rank(m, f.field)
    t, _ = greedy_support_rank(f.group, f.support(), order)
    if rho < t:
        raise VerificationError(f"rank {rho} below greedy escape length {t}")
    if w * rho < n:
        raise VerificationError(f"support-rank product {w * rho} below {n}")
    return UncertaintyResult(w, rho, t, n)


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

    Returns None when d*k > |G|.  Otherwise: translates a minimum-weight
    codeword so its support H contains the identity, then certifies that H
    is a subgroup, the code is generated by the translated word c, the ideal
    cKH is one-dimensional, and (over a p-group in characteristic p) the code
    is the induced span of H-coset indicators; elsewhere that induced span
    meets d*k = |G| as well.
    """
    if code.is_zero():
        raise ValueError("equality analysis needs a nonzero code")
    group, field = code.group, code.field
    n, k = code.length, code.dim
    word = code.min_weight_codeword(guard=guard)
    d = word.weight()
    if d * k != n:
        if d * k < n:
            raise VerificationError("distance-dimension product fell below length")
        return None
    h0 = min(word.support())
    c = word.right_translate(int(group.inverse[h0]))
    members = sorted(c.support())
    try:
        sub = Subgroup(group, members)
    except ValueError:
        raise VerificationError("minimum-weight support is not a subgroup") from None
    if len(sub) != d:
        raise VerificationError("support size differs from the minimum distance")
    regenerated = gc.ideal_from_generators(group, field, [c])
    if regenerated != code:
        raise VerificationError("minimum-weight word fails to regenerate the code")
    if _restricted_rank(c, sub) != 1:
        raise VerificationError("restriction of the generator ideal is not a line")
    # k = [G:H] = dim C, so the guard passes the induced code as it did the ideal
    induced = gc.trivial_induced(group, field, sub)
    if induced != code:
        if is_p_group(group, field.p):
            raise VerificationError(
                "p-group equality code is not the induced indicator span"
            )
        if not induced.params(guard=guard).equality:
            raise VerificationError("induced code misses the bound")
    e = idempotent_generator(code, sub, c)
    return EqualityWitness(sub, c, e)


def _restricted_rank(c: AlgElem, sub: Subgroup) -> int:
    """Rank of multiplication by c on the subalgebra spanned by sub."""
    mem = sub.members
    return linalg.rank(c.multiplication_matrix()[np.ix_(mem, mem)], c.field)


def idempotent_generator(code: GCode, sub: Subgroup, c: AlgElem) -> AlgElem | None:
    """Idempotent generator of the code, existing exactly when the field
    characteristic does not divide the subgroup order.

    The square of the generator is a scalar multiple mu * c; when p divides
    |H| that scalar must vanish (or an idempotent generator would exist),
    and otherwise e = mu^{-1} c is the idempotent.
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
    if gc.ideal_from_generators(code.group, field, [e]) != code:
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
# with no (batch, n, n) stack.  The bytes of each reduced matrix key the
# deduplication (the RREF is unique); over F_2 only the kept ideals' rows are
# unpacked.  The generators of an ideal form a union of orbits, so its
# smallest generator -- the tag the sweeps report -- is an orbit minimum and
# the tags are those of an unpruned sweep.  Sampled sweeps eliminate the
# sampled generators themselves, with no orbit pass over all p^n indices.
#
# Orbit minima by digit-block lookup.  A table gives n maps of coordinates:
# map j moves coordinate x of f to table[x, j], so group.table gives
# f -> f*g_j ((f*g)[x*g] = f[x]).  The index of c times f moved by map j is
# linear in the digits of f's index: a sum over blocks of s digits (s the
# largest with p^s <= _TABLE_SIZE) of a term that depends on that block's
# value alone.  _orbit_tables holds, per block, that term for every block
# value and every (map, c) pair; the orbit pass splits each chunk of indices
# into block values once, adds one table row per block and keeps the indices
# that no column maps lower.  No array over all p^n indices is formed.
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
# Audit.  Every _CROSSCHECK_STRIDE-th f is re-derived through
# uncertainty_check, which shares no code with the fast path: the rank of f's
# own multiplication matrix (linalg.f2_rank on Python-int rows over F_2,
# linalg.rank elsewhere), its weight and its natural-order greedy walk must
# equal the fast values at m* for m the orbit minimum of f*, read off the
# table table[inverse] of f -> f* *g_j (at f itself when sampled), so the
# exhaustive audit also tests the invariance and the involution.  verify_all
# runs the orbit pass once for the uncertainty sweep and the enumeration,
# whose ideal list the bound, equality and Schur sections share.

_SWEEP_CHUNK = 1 << 10
_TABLE_SIZE = 1 << 10  # rows of a digit-block lookup table, at most, so p <= it
_SHUFFLE_SEED = 0  # the second greedy order is this seed's permutation
_CROSSCHECK_STRIDE = 997  # every f with index divisible by it is re-derived


_Tables = list[tuple[int, int, np.ndarray]]  # digit-block lookup tables, see _orbit_tables


class SweepOrbits(NamedTuple):
    """Orbit pass of an exhaustive sweep over F_p[G], under f -> c*f*g.

    minima lists the nonzero orbit minima in ascending order and ranks holds
    dim fF[G] at each; ideals lists each distinct nonzero cyclic ideal once,
    as (smallest generator index, canonical RREF rows), in order of that
    index.
    """

    minima: np.ndarray
    ranks: np.ndarray
    ideals: list[tuple[int, np.ndarray]]


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


def _reduce(
    digits: np.ndarray, masks: np.ndarray | None, translate: np.ndarray, field: PrimeField
) -> tuple[np.ndarray, np.ndarray]:
    """One chunk's elimination: the canonical RREF and rank of the translate
    matrix of each f.  Over F_2 row j is the support mask of f*g_j, so a copy
    of the mask words masks[w, f, j] is reduced by linalg.f2_rref_stack;
    over odd p the digit stack, gathered at the narrowest dtype that holds a
    digit, goes to linalg.rref_stack."""
    if field.p == 2:  # the words of pack_f2, (f, j, w), which it reduces in place
        words = masks.copy().transpose(1, 2, 0).view(np.uint64)
        return linalg.f2_rref_stack(words, len(translate))
    return linalg.rref_stack(digits.astype(np.min_scalar_type(field.p - 1))[:, translate], field)


def _eliminate(
    indices: np.ndarray, group: Group, field: PrimeField
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Ranks of the ideals generated by the given ascending generator indices,
    and the distinct ideals among them as (first index, RREF rows)."""
    n, p = group.order, field.p
    translate, weights = _translate_index(group), translate_weights(group)
    ranks = np.empty(len(indices), dtype=np.int64)
    seen: set[bytes] = set()
    ideals: list[tuple[int, np.ndarray]] = []
    for lo in range(0, len(indices), _SWEEP_CHUNK):
        idx = indices[lo : lo + _SWEEP_CHUNK]
        digits = _generator_digits(idx, n, p)
        # over F_2 the digits are the support indicators
        reduced, rk = _reduce(digits, digits @ weights if p == 2 else None, translate, field)
        ranks[lo : lo + len(idx)] = rk
        for j, (fidx, k) in enumerate(zip(idx.tolist(), rk.tolist())):
            rows = reduced[j, :k]
            key = rows.tobytes()
            if key not in seen:
                seen.add(key)
                ideals.append((fidx, linalg.unpack_f2(rows, n) if p == 2 else rows.copy()))
    return ranks, ideals


def _orbit_tables(table: np.ndarray, p: int) -> _Tables:
    """Digit-block lookup tables of the maps whose table is given, one per
    block of s digits (the last block may be shorter), as (p^first digit,
    p^width, block table).  Block table[v, (c - 1) * n + j] is the block's
    part of the index of c times f moved by map j: the sum over its digits
    x of (c * digit_x(v) mod p) * p^table[x, j].  A one-digit table has p
    rows of (p - 1) * n entries, so p past _TABLE_SIZE is refused."""
    if p > _TABLE_SIZE:
        raise ValueError(f"exhaustive sweeps need p <= {_TABLE_SIZE}, not {p}")
    n = len(table)
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
    minima = []
    for lo in range(1, total, _SWEEP_CHUNK):
        idx = np.arange(lo, min(lo + _SWEEP_CHUNK, total), dtype=np.int64)
        minima.append(idx[_minimum_of(idx, tables) == idx])
    return np.concatenate(minima)


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
    Sampled mode ranks each sampled f by eliminating its translate matrix.
    Every _CROSSCHECK_STRIDE-th f is re-verified through uncertainty_check;
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
        orbit_of = _orbit_tables(group.inverse[group.table], p)  # m -> (c*m*g_j)*
    else:
        picks, ranks, orbit_of = _sample_indices(n, p, sample, sample_seed), None, None
        at = np.flatnonzero(picks % _CROSSCHECK_STRIDE == 0)
        audit, checked = picks[at], len(picks)
    failures: list[tuple[int, str]] = []
    for lo in range(0, len(picks), _SWEEP_CHUNK):
        idx = picks[lo : lo + _SWEEP_CHUNK]
        digits = _generator_digits(idx, n, p)
        masks = (digits != 0).astype(np.int64) @ W
        if ranks is None:
            rk = _reduce(digits, masks, translate, field)[1]
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
            orbit = [idx[j]] if orbit_of is None else np.unique(_lookup(idx[j : j + 1], orbit_of))
            failures += [(f, reason) for f in orbit]
        for k in range(*np.searchsorted(at, [lo, lo + len(idx)])):
            j = at[k] - lo
            if bad[j]:  # reported above, at every f of its orbit
                continue
            w, rho = int(weights[j]), int(rk[j])
            try:
                ref = uncertainty_check(
                    AlgElem(group, field, _generator_digits(audit[k : k + 1], n, p)[0])
                )
                if (ref.weight, ref.rank) != (w, rho):
                    raise VerificationError(
                        f"fast path disagrees with matrix path: "
                        f"{(w, rho)} vs {(ref.weight, ref.rank)}"
                    )
                if ref.cover_rank != t_nat[j]:
                    raise VerificationError(
                        f"mask greedy length {t_nat[j]} disagrees with the "
                        f"greedy walk {ref.cover_rank}"
                    )
            except VerificationError as exc:
                failures.append((audit[k], str(exc)))
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
        if orbits is None:
            orbits = sweep_orbits(group, field)
        found = orbits.ideals
    else:
        picks = _sample_indices(group.order, field.p, sample, sample_seed)
        found = _eliminate(picks, group, field)[1]
    out: list[tuple[int, GCode]] = []
    for fidx, rows in found:
        pivots = (rows != 0).argmax(axis=1)
        out.append((fidx, GCode(group, linalg.RowBasis(rows, pivots, field))))
    return out


T = TypeVar("T")


def _each_ideal(
    group: Group,
    field: PrimeField,
    ideals: Iterable[tuple[int, T]] | None,
    check: Callable[[T], None],
) -> dict:
    """Run check(item) on each listed ideal's item, a GCode unless the caller
    pairs it with more (every cyclic ideal when None), and report each
    VerificationError under the ideal's generator index."""
    if ideals is None:
        ideals = enumerate_cyclic_ideals(group, field)
    checked = 0
    failures: list[dict] = []
    for fidx, item in ideals:
        checked += 1
        try:
            check(item)
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

    return _each_ideal(group, field, ideals, check)


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

    return _each_ideal(group, field, ideals, check)


_PAIRWISE_PRODUCT_CAP = 8  # group order up to which all ideal pairs are multiplied
_CHAIN_BATCH = 16  # ideals whose power chains run together: bounds the stacks and powers held


def verify_schur(
    group: Group,
    field: PrimeField,
    ideals: list[tuple[int, GCode]] | None = None,
) -> dict:
    """Schur-square clauses on every cyclic ideal, fixed-point extraction on
    the Schur-fixed ones, chain stabilization over F_2, and (on small groups)
    closure of every pairwise product.

    Each ideal gets one power chain, to the end over F_2 and to the square
    elsewhere; schur.schur_power_chains runs the chains of _CHAIN_BATCH
    ideals at a time.  A chain that stops at once with period 1 has met a
    Schur-fixed code, whose square is itself."""
    if ideals is None:
        ideals = enumerate_cyclic_ideals(group, field)
    binary = field.p == 2

    def chained() -> Iterator[tuple[int, tuple[GCode, schur.ChainOutcome]]]:
        # a batch's reports hold every power of its chains until checked
        for lo in range(0, len(ideals), _CHAIN_BATCH):
            batch = ideals[lo : lo + _CHAIN_BATCH]
            chains = schur.schur_power_chains(
                [code for _, code in batch], max_t=None if binary else 2
            )
            for (fidx, code), chain in zip(batch, chains):
                yield fidx, (code, chain)

    def check(item: tuple[GCode, schur.ChainOutcome]) -> None:
        code, chain = item
        if isinstance(chain, VerificationError):
            raise chain
        fixed = len(chain.codes) == 1
        _square_clauses(code, code if fixed else chain.codes[1])
        if fixed and len(chain.stabilizer_subgroup) * code.dim != group.order:
            raise VerificationError("Schur-fixed code misses the product equality")
        if binary and (not chain.complete or chain.period != 1):
            raise VerificationError("binary chain failed to stabilize")

    report = _each_ideal(group, field, chained(), check)
    if group.order <= _PAIRWISE_PRODUCT_CAP:
        for i, (fi, a) in enumerate(ideals):
            for fj, b in ideals[i:]:
                try:
                    schur.schur_product(a, b)  # closure asserted at construction
                except (VerificationError, ValueError) as exc:
                    report["failures"].append(
                        {"f": (fi, fj), "reason": f"pairwise product: {exc}"}
                    )
                report["checked"] += 1
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
