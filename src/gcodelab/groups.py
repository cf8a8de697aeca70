"""Finite groups as validated Cayley tables.

A Group stores an n x n index table with the identity forced to index 0.
Construction audits the table: identity row/column, Latin-square property,
two-sided inverses, and associativity, at every order.  The audit keeps its
greedy generating set, and closure questions go through it or through the
one closure routine, `_closure`.  Element orderings are fixed per constructor
and documented on each, because downstream code identifies F_p^G with F_p^n
through them.
"""

from __future__ import annotations

import json
from itertools import permutations

import numpy as np

ORDER_CAP = 4096
_BLOCK = 1 << 17  # entries per gather: stays in cache, bounds memory at ORDER_CAP


class Group:
    """A finite group given by its Cayley table.

    table[i][j] is the index of g_i * g_j; index 0 is the identity.
    `generators` is a generating set of at most log2(n) elements, each the
    smallest index outside the subgroup the ones before generate.  `source`
    records a builtin constructor spec (e.g. "cyclic:4") when one
    applies, so codes over builtin groups serialize compactly.
    """

    def __init__(self, table, labels=None, name: str = "G", source: str | None = None):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("Cayley table must be square")
        n = table.shape[0]
        if n < 1 or n > ORDER_CAP:
            raise ValueError(f"group order must lie in [1, {ORDER_CAP}]")
        if np.any(table < 0) or np.any(table >= n):
            raise ValueError("table entries must be element indices")
        self.generators = _audit_table(table)
        table = table.copy()
        table.setflags(write=False)
        self.table = table
        self.order = n
        self.name = name
        self.source = source
        if labels is None:
            labels = [f"g{i}" for i in range(n)]
        if len(labels) != n:
            raise ValueError("one label per element required")
        self.labels = [str(x) for x in labels]
        inv = np.argmax(table == 0, axis=1).astype(np.int64)
        if np.any(table[inv, np.arange(n)] != 0):
            raise ValueError("inverses are not two-sided")
        inv.setflags(write=False)
        self.inverse = inv

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"Group({self.name}, order={self.order})"


def same_group(a: Group, b: Group) -> bool:
    """The same object, or groups with equal Cayley tables."""
    return a is b or np.array_equal(a.table, b.table)


def _audit_table(table: np.ndarray) -> tuple[int, ...]:
    """Validate the table; return the greedy generating set."""
    n = table.shape[0]
    ar = np.arange(n)
    if not (np.array_equal(table[0], ar) and np.array_equal(table[:, 0], ar)):
        raise ValueError("index 0 must be a two-sided identity")
    # entries lie in [0, n), so n entries hitting every index is a permutation
    hit = np.zeros((n, n), dtype=bool)
    hit[ar[:, None], table] = True
    if not hit.all():
        raise ValueError("rows must be permutations (Latin square)")
    hit[:] = False
    hit[table, ar] = True
    if not hit.all():
        raise ValueError("columns must be permutations (Latin square)")
    return _audit_associativity(table)


def _audit_associativity(table: np.ndarray) -> tuple[int, ...]:
    """Light's test: the product is associative iff (a s) b == a (s b) for
    all a, b and every s in a generating set, because the s passing it for
    all a, b form a submagma that holds the identity.

    Generators are taken greedily, each the smallest index outside the
    closure of the ones before.  Each closure is a Latin subsquare, and a
    proper subsquare has at most half the order of the square, so there are
    at most log2(n) generators, each checked in O(n^2) work.  Returns them.
    """
    n = table.shape[0]
    block = max(1, _BLOCK // n)
    gens: list[int] = []
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    while not inside.all():
        s = int(np.argmin(inside))
        gens.append(s)
        inside[s] = True
        inside = _closure(table, inside)
        for lo in range(0, n, block):
            rows = table[lo : lo + block]
            if not np.array_equal(table[rows[:, s]], rows[:, table[s]]):
                raise ValueError("table is not associative")
    return tuple(gens)


def _products(table: np.ndarray, members: np.ndarray):
    """The products a*b for a, b in a nonempty members array, one row block
    at a time."""
    block = max(1, _BLOCK // len(members))
    for lo in range(0, len(members), block):
        yield table[members[lo : lo + block, None], members]


def _closure(table: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Close a membership mask under the product: X <- X u X*X until it
    stops growing, which doubles the word length each round.  In a finite
    group the closure of a nonempty set is the subgroup it generates."""
    while not inside.all():
        members = np.flatnonzero(inside)
        grown = inside.copy()
        for prods in _products(table, members):
            grown[prods] = True
        if grown.sum() == len(members):
            break
        inside = grown
    return inside


class Subgroup:
    """A validated subgroup, stored as the sorted tuple of member indices."""

    __slots__ = ("group", "members")

    def __init__(self, group: Group, members):
        members = tuple(sorted(int(m) for m in set(members)))
        if not is_subgroup(group, members):
            raise ValueError(f"{members} is not a subgroup")
        if group.order % len(members) != 0:
            raise ValueError("subgroup order must divide the group order")
        self.group = group
        self.members = members

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(self.members)

    @property
    def index(self) -> int:
        return self.group.order // len(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and same_group(self.group, other.group)
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"Subgroup({self.members} of {self.group.name})"


def is_subgroup(g: Group, members) -> bool:
    """Nonempty, inside the group and closed under the product (H*H in H),
    which in a finite group also gives the identity and inverses."""
    mem = sorted({int(m) for m in members})
    if not mem or mem[0] < 0 or mem[-1] >= g.order:
        return False
    inside = np.zeros(g.order, dtype=bool)
    inside[mem] = True
    return all(
        inside[prods].all() for prods in _products(g.table, np.array(mem))
    )


def subgroup_generated(g: Group, seeds) -> Subgroup:
    """Smallest subgroup containing the seeds: the closure of the seeds and
    the identity under the product."""
    seeds = [int(s) for s in seeds]
    for s in seeds:
        if not 0 <= s < g.order:
            raise ValueError(f"element index {s} out of range")
    inside = np.zeros(g.order, dtype=bool)
    inside[[0, *seeds]] = True
    return Subgroup(g, np.flatnonzero(_closure(g.table, inside)).tolist())


def coset_minima(g: Group, h: Subgroup) -> np.ndarray:
    """The one coset map: entry x is the smallest element of the right coset
    Hx = {h*x : h in H}, the minimum over the table rows of H's members, so
    x is its coset's smallest element exactly when entry x is x."""
    if not same_group(h.group, g):
        raise ValueError("subgroup belongs to a different group")
    members = np.array(h.members)
    step = max(1, _BLOCK // g.order)  # table rows per gather
    blocks = [g.table[members[i : i + step]].min(axis=0) for i in range(0, len(h), step)]
    return np.minimum.reduce(blocks)


def p_part_int(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    if p < 2:
        raise ValueError("p must be at least 2")
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def p_part(g: Group, p: int) -> int:
    return p_part_int(g.order, p)


def is_p_group(g: Group, p: int) -> bool:
    return p_part(g, p) == g.order


def normal_p_complement(g: Group, p: int) -> Subgroup | None:
    """The subgroup of p'-elements, when the p'-elements do form a normal
    subgroup of index |G|_p; otherwise None.  An element's order divides
    |G|, so it is prime to p exactly when it divides target = |G| / |G|_p:
    square-and-multiply on the table finds the x with x^target = 1.
    Conjugating by the generators is enough for normality, since the
    subgroup is finite."""
    target = g.order // p_part(g, p)
    power = np.zeros(g.order, dtype=np.int64)  # x^(target mod 2^i)
    square = np.arange(g.order, dtype=np.int64)  # x^(2^i)
    for i in range(target.bit_length()):
        if target >> i & 1:
            power = g.table[power, square]
        square = g.table[square, square]
    members = np.flatnonzero(power == 0).tolist()
    if len(members) != target:
        return None
    try:
        sub = Subgroup(g, members)
    except ValueError:
        return None
    gens = np.array(g.generators, dtype=np.int64)
    conjugates = g.table[g.table[gens[:, None], members], g.inverse[gens, None]]
    if not np.isin(conjugates, members).all():
        return None
    return sub


# --- constructors -----------------------------------------------------------


def _check_order(n: int) -> None:
    if n < 1 or n > ORDER_CAP:
        raise ValueError(f"group order {n} outside [1, {ORDER_CAP}]")


def make_cyclic(n: int) -> Group:
    """C_n with elements ordered as powers of the generator: 1, r, r^2, ..."""
    _check_order(n)
    ar = np.arange(n)
    table = (ar.reshape(-1, 1) + ar) % n
    labels = ["1"] + [f"r{i}" if i > 1 else "r" for i in range(1, n)]
    return Group(table, labels[:n], name=f"C{n}", source=f"cyclic:{n}")


def make_dihedral(m: int) -> Group:
    """Dihedral group of order 2m: rotations r^i first, then reflections s*r^i."""
    if m < 1:
        raise ValueError("m must be at least 1")
    _check_order(2 * m)
    # (s^k r^i)(s^l r^j) = s^(k+l) r^(j + (-1)^l i), since r^i s = s r^-i
    flip, rot = np.divmod(np.arange(2 * m), m)
    turn = (rot + np.where(flip, -1, 1) * rot[:, None]) % m
    table = (flip[:, None] ^ flip[None, :]) * m + turn
    labels = ["1"] + [f"r{i}" if i > 1 else "r" for i in range(1, m)]
    labels += ["s"] + [f"sr{i}" if i > 1 else "sr" for i in range(1, m)]
    return Group(table, labels, name=f"D{m}", source=f"dihedral:{m}")


def make_symmetric(k: int) -> Group:
    """S_k (k <= 5), elements in lexicographic one-line order; the product
    sigma*tau acts as the composition x -> sigma(tau(x))."""
    if not 1 <= k <= 5:
        raise ValueError("symmetric constructor supports 1 <= k <= 5")
    perms = list(permutations(range(k)))
    arr = np.array(perms, dtype=np.int64).reshape(len(perms), k)
    # lexicographic order is increasing order of the base-k reading
    place = k ** np.arange(k - 1, -1, -1)
    composed = arr[np.arange(len(perms))[:, None, None], arr[None, :, :]]
    table = np.searchsorted(arr @ place, composed @ place)
    labels = ["".join(map(str, p)) for p in perms]
    return Group(table, labels, name=f"S{k}", source=f"symmetric:{k}")


_QUAT_AXES = {
    ("e", "e"): (0, "e"), ("e", "i"): (0, "i"), ("e", "j"): (0, "j"), ("e", "k"): (0, "k"),
    ("i", "e"): (0, "i"), ("i", "i"): (1, "e"), ("i", "j"): (0, "k"), ("i", "k"): (1, "j"),
    ("j", "e"): (0, "j"), ("j", "i"): (1, "k"), ("j", "j"): (1, "e"), ("j", "k"): (0, "i"),
    ("k", "e"): (0, "k"), ("k", "i"): (0, "j"), ("k", "j"): (1, "i"), ("k", "k"): (1, "e"),
}


def make_quaternion8() -> Group:
    """Q8 with element order 1, -1, i, -i, j, -j, k, -k."""
    axes = ["e", "i", "j", "k"]
    elems = [(a, s) for a in axes for s in (0, 1)]
    index = {e: i for i, e in enumerate(elems)}
    table = np.zeros((8, 8), dtype=np.int64)
    for (a, sa) in elems:
        for (b, sb) in elems:
            flip, c = _QUAT_AXES[(a, b)]
            table[index[(a, sa)], index[(b, sb)]] = index[(c, sa ^ sb ^ flip)]
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return Group(table, labels, name="Q8", source="quaternion8")


def make_elementary_abelian(p: int, m: int) -> Group:
    """(C_p)^m; element index i is the base-p expansion of i, most significant
    digit first, added componentwise."""
    if p < 2 or m < 1:
        raise ValueError("need p >= 2 and m >= 1")
    n = p**m
    _check_order(n)
    digits = np.zeros((n, m), dtype=np.int64)
    idx = np.arange(n)
    for j in range(m):
        digits[:, j] = (idx // p ** (m - 1 - j)) % p
    weights = p ** np.arange(m - 1, -1, -1)
    table = ((digits[:, None, :] + digits[None, :, :]) % p) @ weights
    labels = ["".join(str(d) for d in row) for row in digits]
    return Group(table, labels, name=f"C{p}^{m}", source=f"elemabelian:{p},{m}")


def direct_product(a: Group, b: Group) -> Group:
    """A x B with pairs ordered lexicographically: index = i*|B| + j."""
    n = a.order * b.order
    _check_order(n)
    ta = a.table[:, None, :, None] * b.order
    tb = b.table[None, :, None, :]
    table = (ta + tb).reshape(n, n)
    labels = [f"({la},{lb})" for la in a.labels for lb in b.labels]
    src = None
    if a.source and b.source:
        src = f"{a.source}x{b.source}"
    return Group(table, labels, name=f"{a.name}x{b.name}", source=src)


# --- builtin specs and JSON files -------------------------------------------


def from_spec(spec: str) -> Group:
    """Build a group from a builtin spec string or a JSON file path.

    Builtin forms: cyclic:N, dihedral:M, symmetric:K, quaternion8,
    elemabelian:P,M, and x-separated products like cyclic:4xcyclic:2.
    """
    spec = spec.strip()
    if spec.endswith(".json"):
        return load_group(spec)
    parts = spec.split("x")
    if len(parts) > 1:
        g = from_spec(parts[0])
        for part in parts[1:]:
            g = direct_product(g, from_spec(part))
        return g
    head, colon, arg = spec.partition(":")
    head = head.lower()
    if head == "cyclic":
        return make_cyclic(int(arg))
    if head == "dihedral":
        return make_dihedral(int(arg))
    if head == "symmetric":
        return make_symmetric(int(arg))
    if head == "quaternion8" and not colon:  # with an argument it is unknown
        return make_quaternion8()
    if head == "elemabelian":
        p, m = (int(x) for x in arg.split(","))
        return make_elementary_abelian(p, m)
    raise ValueError(f"unknown group spec {spec!r}")


def group_to_dict(g: Group) -> dict:
    return {
        "name": g.name,
        "order": g.order,
        "table": g.table.tolist(),
        "labels": list(g.labels),
    }


def group_from_dict(data: dict) -> Group:
    """The group of a JSON object, whose order and table entries must be JSON
    integers (one dtype check covers the whole table), its name a string and
    its labels a list of one string per element."""
    if not isinstance(data, dict) or not {"name", "order", "table", "labels"} <= set(data):
        raise ValueError("group file needs name, order, table, labels")
    table = np.asarray(data["table"])
    if type(data["order"]) is not int or table.dtype.kind != "i":
        raise ValueError("a group's order and table entries must be integers")
    if table.shape[:1] != (data["order"],):
        raise ValueError("declared order does not match table size")
    if not isinstance(data["name"], str):
        raise ValueError("a group's name must be a string")
    labels = data["labels"]
    if not (
        isinstance(labels, list)
        and len(labels) == data["order"]
        and all(isinstance(x, str) for x in labels)
    ):
        raise ValueError("a group's labels must be a list of one string per element")
    return Group(table, labels=labels, name=data["name"])


def save_group(g: Group, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(group_to_dict(g), fh)


def load_group(path: str) -> Group:
    with open(path, encoding="utf-8") as fh:
        return group_from_dict(json.load(fh))
