"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately slow, pure-Python, and structurally unlike
the package implementations: row reduction over lists, codeword scans via
itertools.product, closure by set saturation.  Tests compare the fast paths
against these on small instances.
"""

from itertools import permutations, product

import numpy as np


def rank_mod_p(rows, p):
    """Gaussian elimination over lists of ints."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = None
        for r in range(rank, len(m)):
            if m[r][col] % p:
                pivot = r
                break
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def in_span(rows, vec, p):
    return rank_mod_p(list(rows), p) == rank_mod_p(list(rows) + [list(vec)], p)


def min_distance_scan(basis_rows, p):
    """Minimum nonzero codeword weight by scanning every coefficient tuple."""
    k = len(basis_rows)
    n = len(basis_rows[0])
    best = None
    for coeffs in product(range(p), repeat=k):
        if not any(coeffs):
            continue
        word = [sum(c * row[j] for c, row in zip(coeffs, basis_rows)) % p for j in range(n)]
        w = sum(1 for x in word if x)
        if best is None or w < best:
            best = w
    return best


def min_scan_chunked(basis, p, chunk=1 << 14, start=1, stop=None):
    """(minimum weight, first message index reaching it) over the message
    indices start..stop-1 (default: every nonzero message), one message per
    row of an int64 digit matmul, 2^14 messages at a time: the scan the
    split scan replaced, kept as its reference.  Message index i has the
    base-p digits of i as coefficients, the first row's most significant."""
    basis = np.asarray(basis, dtype=np.int64)
    k = basis.shape[0]
    stop = p**k if stop is None else stop
    divs = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    best = None
    for lo in range(start, stop, chunk):
        idx = np.arange(lo, min(lo + chunk, stop), dtype=np.int64)
        digits = (idx[:, None] // divs) % p
        weights = np.count_nonzero((digits @ basis) % p, axis=1)
        j = int(np.argmin(weights))
        if best is None or weights[j] < best[0]:
            best = (int(weights[j]), lo + j)
    return best


def full_algebra(group, field):
    """F_p[G] itself, the ideal spanned by the identity basis."""
    from gcodelab import linalg
    from gcodelab.gcode import GCode

    return GCode(group, linalg.rref(np.eye(group.order, dtype=np.int64), field))


def zero_code(group, field):
    """The zero ideal of F_p[G]."""
    from gcodelab import linalg
    from gcodelab.gcode import GCode

    rows = np.zeros((0, group.order), dtype=np.int64)
    return GCode(group, linalg.rref(rows, field, width=group.order))


def greedy_support_rank(group, support, order=None):
    """Greedy escape sequence for the translates of a support set, one
    element at a time: the walk `theorems.uncertainty_checks` batches, kept
    as its reference.

    Walks `order` and keeps g whenever (support)g escapes the union of the
    translates kept so far.  The kept sequence has escape length t, the union
    covers the whole group, and t >= ceil(|G| / |support|).
    """
    from gcodelab.errors import VerificationError

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
    seq = []
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


def convolve_scan(table, f, h, p):
    """Algebra product by the definition, no vectorization."""
    n = len(table)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            out[table[i][j]] = (out[table[i][j]] + f[i] * h[j]) % p
    return out


def closure_scan(table, inverse, seeds):
    """Subgroup generated by seeds, by saturation over products/inverses."""
    members = {0} | set(seeds) | {inverse[s] for s in seeds}
    while True:
        new = set()
        for a in members:
            for b in members:
                c = table[a][b]
                if c not in members:
                    new.add(c)
        if not new:
            return members
        members |= new


def is_normal_scan(table, inverse, members):
    mem = set(members)
    n = len(table)
    for g in range(n):
        for m in members:
            if table[table[g][m]][inverse[g]] not in mem:
                return False
    return True


def is_subgroup_scan(table, inverse, members):
    """Identity, products and inverses, pair by pair."""
    mem = set(members)
    if 0 not in mem or any(not 0 <= m < len(table) for m in mem):
        return False
    return all(inverse[a] in mem for a in mem) and all(
        table[a][b] in mem for a in mem for b in mem
    )


def subgroup_bfs(table, inverse, seeds):
    """Subgroup generated by seeds, breadth first from the identity through
    right multiplication by the seeds and their inverses."""
    gens = set(seeds) | {inverse[s] for s in seeds}
    members, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = table[x][s]
                if y not in members:
                    members.add(y)
                    nxt.append(y)
        frontier = nxt
    return members


def two_generated_subgroups(table, inverse):
    """Every subgroup generated by at most two elements, as sorted member
    tuples in sorted order.  That is every subgroup of S3, D4, Q8, D6 and S4."""
    n = len(table)
    return sorted(
        {tuple(sorted(subgroup_bfs(table, inverse, [a, b]))) for a in range(n) for b in range(a, n)}
    )


def cosets_scan(table, members, side="right"):
    """The right cosets {h*x : h in H} (or the left cosets {x*h}), each
    sorted, in order of their smallest elements."""
    if side == "right":
        return sorted({tuple(sorted({table[h][x] for h in members})) for x in range(len(table))})
    return sorted({tuple(sorted({table[x][h] for h in members})) for x in range(len(table))})


def element_orders_scan(table):
    """Order of each element, by repeated product until the identity."""
    orders = []
    for g in range(len(table)):
        x, order = g, 1
        while x != 0:
            x, order = table[x][g], order + 1
        orders.append(order)
    return orders


def normal_complement_scan(table, inverse, p):
    """The p'-elements, when they form a normal subgroup whose index is the
    p-part of the order; otherwise None.  Element orders by repeated product."""
    n = len(table)
    members = [g for g, order in enumerate(element_orders_scan(table)) if order % p]
    p_part = 1
    while n % (p_part * p) == 0:
        p_part *= p
    if len(members) * p_part != n or not is_subgroup_scan(table, inverse, members):
        return None
    return members if is_normal_scan(table, inverse, members) else None


def projective_cover_cases(table, inverse, p):
    """The cover of the trivial module by its three classical cases, as
    (canonical basis rows, method): the all-ones line when p does not divide
    the order, the whole algebra for a p-group, and the right-coset indicators
    of the normal p-complement otherwise; None when no case applies."""
    n = len(table)
    rest = n
    while rest % p == 0:
        rest //= p
    if n % p:
        members, method = list(range(n)), "semisimple"
    elif rest == 1:
        members, method = [0], "p-group"
    else:
        members, method = normal_complement_scan(table, inverse, p), "p-nilpotent"
        if members is None:
            return None
    cosets = {frozenset(table[h][g] for h in members) for g in range(n)}
    rows = [[int(x in coset) for x in range(n)] for coset in cosets]
    return sorted(rows, key=lambda row: row.index(1)), method


def is_ideal_scan(table, rows, p):
    """Row space closed under right translation by every element: for each
    g, adding the translated rows leaves the rank unchanged."""
    n = len(table)
    rank = rank_mod_p(rows, p)
    for g in range(n):
        moved = []
        for row in rows:
            out = [0] * n
            for x in range(n):
                out[table[x][g]] = row[x]
            moved.append(out)
        if rank_mod_p(list(rows) + moved, p) != rank:
            return False
    return True


def dihedral_table_loop(m):
    """D_m of order 2m, rotations r^i first, then reflections s*r^i."""
    n = 2 * m
    table = [[0] * n for _ in range(n)]
    for k in (0, 1):
        for i in range(m):
            for l in (0, 1):
                for j in range(m):
                    rot = (j - i) % m if l else (i + j) % m
                    table[k * m + i][l * m + j] = (k ^ l) * m + rot
    return table


def symmetric_table_loop(k):
    """S_k in lexicographic one-line order, sigma*tau = sigma o tau."""
    perms = list(permutations(range(k)))
    index = {perm: i for i, perm in enumerate(perms)}
    return [[index[tuple(a[b[x]] for x in range(k))] for b in perms] for a in perms]


def orbit_minima_matmul(table, inverse, p):
    """Smallest index in the orbit of every generator index under
    f -> c*f*g, by the digit-gather and matmul loop the orbit pass used to
    run: digits[:, row] are the coefficients of f*g, and (c * moved % p) @
    place is the index of c*f*g.  Given the transposed table, the orbits
    are those of f -> c*g*f."""
    table, inverse = np.asarray(table), np.asarray(inverse)
    n = len(table)
    translate = table[:, inverse].T
    place = p ** np.arange(n, dtype=np.int64)
    idx = np.arange(p**n, dtype=np.int64)
    digits = (idx[:, None] // place) % p
    best = idx.copy()
    for row in translate:
        moved = digits[:, row]
        for c in range(1, p):
            np.minimum(best, ((c * moved) % p) @ place, out=best)
    return best


def orbit_minima_scan(table, p):
    """Smallest index in the orbit of every generator index under
    f -> c*f*g, forming each c*f*g through the Cayley table:
    (f*g)[x*g] = f[x].  Given the transposed table, the orbits are those of
    f -> c*g*f."""
    n = len(table)
    out = []
    for i in range(p**n):
        f = [(i // p**x) % p for x in range(n)]
        best = i
        for g in range(n):
            moved = [0] * n
            for x in range(n):
                moved[table[x][g]] = f[x]
            for c in range(1, p):
                best = min(best, sum((c * m % p) * p**x for x, m in enumerate(moved)))
        out.append(best)
    return out


def left_orbit(f):
    """Sorted generator indices of the orbit of an AlgElem f under
    f -> c*g*f, each product formed by AlgElem multiplication with the basis
    element g."""
    from gcodelab.galg import AlgElem

    group, field, p = f.group, f.field, f.field.p
    out = set()
    for g in range(group.order):
        gf = AlgElem.basis_elem(group, field, g) * f
        for c in range(1, p):
            out.add(sum(int(x) * p**i for i, x in enumerate(gf.scale(c).coeffs)))
    return sorted(out)


def star(f):
    """f* = sum f(x) x^-1 as an AlgElem, each x^-1 found by scanning row x of
    the Cayley table for the identity, index 0."""
    from gcodelab.galg import AlgElem

    group, field = f.group, f.field
    out = AlgElem.zero(group, field)
    for x in range(group.order):
        inv = [int(y) for y in group.table[x]].index(0)
        out = out + AlgElem.basis_elem(group, field, inv).scale(int(f.coeffs[x]))
    return out


def translate_support_words(f):
    """Support masks of the right translates f * g_j of an AlgElem, one list
    per j of ceil(n/64) signed 64-bit words (bit x % 64 of word x // 64 is
    set when x is in the support), each translate formed by
    `right_translate` and its support read as a set."""
    n = f.group.order
    out = []
    for j in range(n):
        words = [0] * -(-n // 64)
        for x in f.right_translate(j).support():
            words[x // 64] |= 1 << (x % 64)
        out.append([w - (1 << 64) if w >> 63 else w for w in words])
    return out


def f2_words(rows):
    """Rows of integers as the little-endian 64-bit words of their residues
    mod 2, built one Python int per row."""
    out = []
    for row in rows:
        value = sum(1 << c for c, x in enumerate(row) if x % 2)
        out.append([(value >> (64 * w)) & ((1 << 64) - 1) for w in range(-(-len(row) // 64))])
    return out


def _translate_rows(group, mask):
    """Row g is the coefficient vector of the AlgElem product f * g, for the
    element f of F_2[group] whose coefficient bits are `mask`."""
    from gcodelab.ffield import PrimeField
    from gcodelab.galg import AlgElem

    f2 = PrimeField(2)
    f = AlgElem(group, f2, [(mask >> m) & 1 for m in range(group.order)])
    return np.array(
        [(f * AlgElem.basis_elem(group, f2, g)).coeffs for g in range(group.order)]
    )


def translate_masks(group, mask):
    """The right translates f * g of the element of F_2[group] whose
    coefficient bits are `mask`, each packed the same way, from AlgElem
    products: bit m of entry g is coefficient m of f * g."""
    rows = _translate_rows(group, mask)
    return [sum(int(c) << m for m, c in enumerate(row)) for row in rows]


def self_orthogonal_translates(group, mask):
    """Whether the right ideal of F_2[group] generated by the element whose
    coefficient bits are `mask` is self-orthogonal, from its translate
    matrix: row g is the AlgElem product f * g, and R·Rᵀ must vanish mod 2."""
    rows = _translate_rows(group, mask)
    return not ((rows @ rows.T) % 2).any()


def golay_scan_unfiltered(budget, seed, chunk=1 << 12):
    """(trial, mask) of the first trial whose ideal of F_2[S4] has dimension
    12 and minimum distance 8, or None: the scan loop `golay_search` ran
    before it dropped any trial by its weight or by the parity of its
    translates, kept as its reference.  Every nonzero trial is ranked, and each of rank 12 is
    reduced and scanned.  The masks are those of `golay_search`, one Philox
    stream keyed by the seed, here drawn in fixed chunks."""
    from gcodelab import gcode as gc, linalg
    from gcodelab.groups import make_symmetric

    group = make_symmetric(4)
    shifts = np.arange(group.order)
    weights = np.int64(1) << group.table.astype(np.int64)
    rng = np.random.Generator(np.random.Philox(key=seed))
    for start in range(0, budget, chunk):
        size = min(chunk, budget - start)
        masks = rng.integers(0, 1 << group.order, size=size, dtype=np.int64)
        col_masks = ((masks[:, None] >> shifts) & 1) @ weights
        for t in range(size):
            if masks[t] == 0:
                continue
            rows = col_masks[t].tolist()
            if linalg.f2_rank(rows) != 12:
                continue
            key = np.array(linalg.f2_rref(rows), dtype=np.int64)
            if gc._split_scan((key[:, None] >> shifts) & 1, 2)[0] == 8:
                return start + t, int(masks[t])
    return None


def schur_product_by_rref(a, b):
    """The Schur product of two codes as `schur.schur_product` formed it
    before every product went through one stacked step, kept as its
    reference: `linalg.rref` of all k*k' product rows, and the meet's
    dimension from `rank_mod_p` of the stacked bases.  Same checks, errors
    and messages: ValueError for codes over different groups or fields and
    for a span that is not an ideal, VerificationError above the bound."""
    from gcodelab import linalg
    from gcodelab.errors import VerificationError
    from gcodelab.gcode import GCode
    from gcodelab.groups import same_group

    if not same_group(a.group, b.group):
        raise ValueError("codes live over different groups")
    if a.field != b.field:
        raise ValueError(f"modulus mismatch: {a.field.p} vs {b.field.p}")
    n = a.length
    rows = (a.basis.matrix[:, None, :] * b.basis.matrix[None, :, :]).reshape(-1, n)
    out = GCode(a.group, linalg.rref(rows, a.field, width=n))
    both = a.basis.matrix.tolist() + b.basis.matrix.tolist()
    meet = a.dim + b.dim - rank_mod_p(both, a.field.p)
    cap = min(n, a.dim * b.dim - meet * (meet - 1) // 2)
    if out.dim > cap:
        raise VerificationError(f"product dimension {out.dim} exceeds the bound {cap}")
    return out


def power_chain_by_products(code, max_t=None):
    """(dims, regularity, period, complete, code keys, stabilizer members or
    None) of the power chain of one code, each power one
    `schur_product_by_rref` of the last power with the code and each step
    checked on the GCodes it made: the loop `schur_power_chain` ran before
    the chains were batched, kept as their reference.  Raises the step's
    VerificationError."""
    from gcodelab import schur
    from gcodelab.errors import VerificationError

    if max_t is None:
        max_t = 2 * code.length + 4
    codes, seen = [code], {code.key(): 1}
    while len(codes) < max_t:
        nxt = schur_product_by_rref(codes[-1], code)
        if nxt.dim < codes[-1].dim:
            raise VerificationError("power dimension decreased along the chain")
        if code.field.p == 2 and not codes[-1].issubset(nxt):
            raise VerificationError("binary power chain failed to ascend")
        t = len(codes) + 1
        if nxt.key() in seen:
            dims = [c.dim for c in codes]
            period = t - seen[nxt.key()]
            stabilizer = schur.fixed_point_structure(codes[-1]) if period == 1 else None
            keys = [c.key() for c in codes]
            members = stabilizer.members if stabilizer else None
            return dims, dims.index(dims[-1]) + 1, period, True, keys, members
        seen[nxt.key()] = t
        codes.append(nxt)
    return [c.dim for c in codes], None, None, False, [c.key() for c in codes], None
