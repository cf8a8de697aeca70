import json

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

import oracles
from gcodelab import groups

ALL_CONSTRUCTED = [
    groups.make_cyclic(1),
    groups.make_cyclic(6),
    groups.make_cyclic(1024),
    groups.make_dihedral(1),
    groups.make_dihedral(4),
    groups.make_dihedral(5),
    groups.make_dihedral(64),
    groups.make_symmetric(1),
    groups.make_symmetric(2),
    groups.make_symmetric(3),
    groups.make_symmetric(4),
    groups.make_symmetric(5),
    groups.make_quaternion8(),
    groups.make_elementary_abelian(2, 3),
    groups.make_elementary_abelian(3, 2),
    groups.make_elementary_abelian(2, 8),
    groups.make_elementary_abelian(3, 5),
    groups.from_spec("cyclic:2xcyclic:2xcyclic:2xcyclic:2xcyclic:64"),
    groups.direct_product(groups.make_quaternion8(), groups.make_symmetric(4)),
    groups.direct_product(groups.make_cyclic(4), groups.make_cyclic(2)),
]


def test_constructor_audits_pass_and_orders_divide():
    for g in ALL_CONSTRUCTED:
        assert g.table[0].tolist() == list(range(g.order))
        for o in oracles.element_orders_scan(g.table.tolist()):
            assert g.order % o == 0


def test_trivial_group():
    g = groups.make_cyclic(1)
    assert g.table.tolist() == [[0]] and g.order == 1


def test_symmetric_order_and_closure_matches_sympy():
    s4 = groups.make_symmetric(4)
    assert s4.order == 24
    # a 4-cycle and a transposition generate everything
    perms = [tuple(int(c) for c in lab) for lab in s4.labels]
    four_cycle = perms.index((1, 2, 3, 0))
    transposition = perms.index((1, 0, 2, 3))
    sub = groups.subgroup_generated(s4, [four_cycle, transposition])
    assert len(sub) == 24
    assert PermutationGroup(Permutation(0, 1, 2, 3), Permutation(0, 1)).order() == 24
    closure = oracles.closure_scan(
        s4.table.tolist(), s4.inverse.tolist(), [four_cycle, transposition]
    )
    assert len(closure) == 24


def test_product_matches_elementary_abelian():
    a = groups.direct_product(groups.make_cyclic(2), groups.make_cyclic(2))
    b = groups.make_elementary_abelian(2, 2)
    assert np.array_equal(a.table, b.table)


def test_quaternion_relations():
    q8 = groups.make_quaternion8()
    lab = {name: i for i, name in enumerate(q8.labels)}
    assert q8.mul(lab["i"], lab["j"]) == lab["k"]
    assert q8.mul(lab["j"], lab["i"]) == lab["-k"]
    assert q8.mul(lab["i"], lab["i"]) == lab["-1"]
    assert q8.mul(lab["-1"], lab["-1"]) == lab["1"]
    assert sorted(oracles.element_orders_scan(q8.table.tolist())) == [1, 2] + [4] * 6


def test_dihedral_relations():
    d4 = groups.make_dihedral(4)
    lab = {name: i for i, name in enumerate(d4.labels)}
    # s r s^{-1} = r^{-1}
    sr = d4.mul(lab["s"], lab["r"])
    assert d4.mul(sr, d4.inv(lab["s"])) == lab["r3"]
    orders = oracles.element_orders_scan(d4.table.tolist())
    assert orders[lab["r"]] == 4
    assert orders[lab["s"]] == 2


def test_subgroup_generated_examples():
    assert groups.subgroup_generated(groups.make_cyclic(5), []).members == (0,)
    c4 = groups.make_cyclic(4)
    assert groups.subgroup_generated(c4, [2]).members == (0, 2)
    with pytest.raises(ValueError):
        groups.subgroup_generated(c4, [7])


def test_is_subgroup_examples():
    c6 = groups.make_cyclic(6)
    assert groups.is_subgroup(c6, [0])
    assert not groups.is_subgroup(c6, [2, 4])  # identity missing
    assert groups.is_subgroup(c6, [0, 2, 4])
    assert not groups.is_subgroup(c6, [0, 3, 4])
    assert not groups.is_subgroup(c6, [])
    assert not groups.is_subgroup(c6, [0, 6]) and not groups.is_subgroup(c6, [-1, 0])


def test_subgroup_validation():
    c6 = groups.make_cyclic(6)
    with pytest.raises(ValueError):
        groups.Subgroup(c6, [0, 2])  # not closed: 2+2=4 missing
    h = groups.Subgroup(c6, [0, 3])
    assert h.index == 3


def test_right_cosets():
    c4 = groups.make_cyclic(4)
    h = groups.Subgroup(c4, [0, 2])
    assert groups.right_cosets(c4, h) == [[0, 2], [1, 3]]
    whole = groups.Subgroup(c4, range(4))
    assert groups.right_cosets(c4, whole) == [[0, 1, 2, 3]]
    triv = groups.Subgroup(c4, [0])
    assert groups.right_cosets(c4, triv) == [[0], [1], [2], [3]]


# every subgroup of each group, and how many of them are not normal
SUBGROUP_COUNTS = {
    "symmetric:3": (6, 3),
    "dihedral:4": (10, 4),
    "quaternion8": (6, 0),
    "dihedral:6": (16, 9),
    "symmetric:4": (30, 26),
}


@pytest.mark.parametrize("spec", list(SUBGROUP_COUNTS))
def test_coset_map_matches_brute_force_right_cosets(spec):
    g = groups.from_spec(spec)
    table, inverse = g.table.tolist(), g.inverse.tolist()
    subgroups = oracles.two_generated_subgroups(table, inverse)
    lopsided = 0  # subgroups whose left cosets are not their right cosets
    for members in subgroups:
        h = groups.Subgroup(g, members)
        cosets = oracles.cosets_scan(table, members)
        minimum = {x: coset[0] for coset in cosets for x in coset}
        assert groups.coset_minima(g, h).tolist() == [minimum[x] for x in range(g.order)]
        assert groups.right_cosets(g, h) == [list(coset) for coset in cosets]
        lopsided += cosets != oracles.cosets_scan(table, members, side="left")
    assert (len(subgroups), lopsided) == SUBGROUP_COUNTS[spec]


def test_coset_map_in_row_blocks():
    # at order 1024 a gather holds 128 table rows, so H = <r^2> takes 4
    c1024 = groups.make_cyclic(1024)
    h = groups.subgroup_generated(c1024, [2])
    assert len(h) == 512
    assert groups.coset_minima(c1024, h).tolist() == [x % 2 for x in range(1024)]
    assert groups.right_cosets(c1024, h) == [list(range(0, 1024, 2)), list(range(1, 1024, 2))]


def test_cosets_partition_property():
    d4 = groups.make_dihedral(4)
    for seed in range(d4.order):
        h = groups.subgroup_generated(d4, [seed])
        blocks = groups.right_cosets(d4, h)
        flat = sorted(x for b in blocks for x in b)
        assert flat == list(range(d4.order))
        assert all(len(b) == len(h) for b in blocks)
        assert blocks[0] == list(h.members)


def test_p_part():
    assert groups.p_part(groups.make_symmetric(4), 2) == 8
    assert groups.p_part(groups.make_cyclic(5), 2) == 1
    assert groups.p_part_int(7920, 2) == 16


def test_is_p_group():
    assert groups.is_p_group(groups.make_cyclic(8), 2)
    assert not groups.is_p_group(groups.make_symmetric(4), 2)
    assert groups.is_p_group(groups.make_cyclic(1), 3)


def test_normal_p_complement():
    c6 = groups.make_cyclic(6)
    comp = groups.normal_p_complement(c6, 2)
    assert comp.members == (0, 2, 4)

    s3 = groups.make_symmetric(3)
    comp = groups.normal_p_complement(s3, 2)
    assert comp is not None and len(comp) == 3
    orders = oracles.element_orders_scan(s3.table.tolist())
    assert all(orders[m] in (1, 3) for m in comp.members)
    assert oracles.is_normal_scan(s3.table.tolist(), s3.inverse.tolist(), comp.members)

    assert groups.normal_p_complement(groups.make_symmetric(4), 2) is None
    q8 = groups.make_quaternion8()
    assert groups.normal_p_complement(q8, 2).members == (0,)


SMALL = {
    "C8": groups.make_cyclic(8),
    "D4": groups.make_dihedral(4),
    "Q8": groups.make_quaternion8(),
    "C2^3": groups.make_elementary_abelian(2, 3),
    "S3": groups.make_symmetric(3),
    "C6": groups.make_cyclic(6),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_closure_checks_match_brute_force_on_every_subset(name):
    g = SMALL[name]
    table, inverse = g.table.tolist(), g.inverse.tolist()
    subgroups = set()
    for mask in range(1 << g.order):
        subset = [i for i in range(g.order) if mask >> i & 1]
        expect = oracles.is_subgroup_scan(table, inverse, subset)
        assert groups.is_subgroup(g, subset) == expect, subset
        generated = groups.subgroup_generated(g, subset)
        assert set(generated.members) == oracles.subgroup_bfs(table, inverse, subset)
        assert (generated.members == tuple(subset)) == expect
        if expect:
            subgroups.add(tuple(subset))
    assert len(subgroups) == {"C8": 4, "D4": 10, "Q8": 6, "C2^3": 16,
                              "S3": 6, "C6": 4}[name]


@pytest.mark.parametrize("spec", [
    "cyclic:8", "dihedral:4", "quaternion8", "elemabelian:2,3", "symmetric:3",
    "cyclic:6", "symmetric:4", "dihedral:5", "dihedral:6", "cyclic:10",
    "cyclic:3xsymmetric:3", "quaternion8xcyclic:3", "dihedral:9",
    "dihedral:15", "cyclic:36", "symmetric:5",
])
def test_normal_p_complement_matches_brute_force(spec):
    g = groups.from_spec(spec)
    for p in (2, 3, 5, 7):
        comp = groups.normal_p_complement(g, p)
        expect = oracles.normal_complement_scan(g.table.tolist(), g.inverse.tolist(), p)
        assert (comp.members if comp else None) == (tuple(expect) if expect else None)


def test_generators_generate_within_log2_of_the_order():
    for g in ALL_CONSTRUCTED:
        gens = g.generators
        assert isinstance(gens, tuple) and all(isinstance(s, int) for s in gens)
        assert len(gens) <= max(0, g.order.bit_length() - 1)
        assert len(groups.subgroup_generated(g, gens)) == g.order
        if g.order <= 120:
            table, inverse = g.table.tolist(), g.inverse.tolist()
            assert len(oracles.subgroup_bfs(table, inverse, gens)) == g.order
    assert groups.make_symmetric(4).generators == (1, 2, 6)
    assert groups.make_cyclic(1).generators == ()


def test_dihedral_and_symmetric_tables_match_loop_references():
    for m in [*range(1, 40), 64, 100]:
        assert groups.make_dihedral(m).table.tolist() == oracles.dihedral_table_loop(m)
    for k in range(1, 6):
        assert groups.make_symmetric(k).table.tolist() == oracles.symmetric_table_loop(k)


def test_same_group_is_identity_then_table():
    c4 = groups.make_cyclic(4)
    assert groups.same_group(c4, c4)
    assert groups.same_group(c4, groups.make_cyclic(4))
    assert not groups.same_group(c4, groups.make_elementary_abelian(2, 2))
    assert not groups.same_group(c4, groups.make_cyclic(8))


def test_subgroups_of_equal_table_copies_are_equal():
    c4, twin = groups.make_cyclic(4), groups.make_cyclic(4)
    h, h_twin = groups.Subgroup(c4, [0, 2]), groups.Subgroup(twin, [0, 2])
    assert h == h_twin and hash(h) == hash(h_twin)
    assert groups.right_cosets(c4, h_twin) == [[0, 2], [1, 3]]
    v4 = groups.make_elementary_abelian(2, 2)
    assert groups.Subgroup(v4, [0, 2]) != h
    with pytest.raises(ValueError, match="subgroup belongs to a different group"):
        groups.right_cosets(v4, h)


def test_corrupt_tables_rejected():
    c4 = groups.make_cyclic(4)
    bad = c4.table.copy()
    bad[1, 1] = 1  # row 1 repeats an entry
    with pytest.raises(ValueError):
        groups.Group(bad)
    s3 = groups.make_symmetric(3).table
    row_repeat = s3.copy()
    row_repeat[2, 3] = row_repeat[2, 4]  # row 2 repeats an entry
    with pytest.raises(ValueError, match="rows must be permutations"):
        groups.Group(row_repeat)
    col_repeat = s3.copy()
    col_repeat[2, [3, 4]] = col_repeat[2, [4, 3]]  # rows intact, columns 3, 4 repeat
    with pytest.raises(ValueError, match="columns must be permutations"):
        groups.Group(col_repeat)
    shifted = (c4.table + 1) % 4  # identity no longer at 0
    with pytest.raises(ValueError):
        groups.Group(shifted)
    # Latin square but not associative
    nonassoc = np.array([[0, 1, 2, 3, 4],
                         [1, 0, 3, 4, 2],
                         [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1],
                         [4, 3, 1, 2, 0]])
    with pytest.raises(ValueError):
        groups.Group(nonassoc)
    # Z_202 with the intercalate at rows/columns {1, 102} swapped: a Latin
    # square with identity 0, read from JSON, audited past order 200
    loop = groups.make_cyclic(202).table.copy()
    cells = np.ix_([1, 102], [1, 102])
    loop[cells] = loop[cells][::-1]
    data = {"name": "L202", "order": 202, "table": loop.tolist(),
            "labels": [str(i) for i in range(202)]}
    with pytest.raises(ValueError, match="not associative"):
        groups.group_from_dict(data)


def _normalized_latin_squares(n):
    table = np.full((n, n), -1)
    table[0], table[:, 0] = np.arange(n), np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield table.copy()
            return
        i, j = cells[k]
        for v in range(n):
            if v not in table[i] and v not in table[:, j]:
                table[i, j] = v
                yield from fill(k + 1)
                table[i, j] = -1

    yield from fill(0)


def test_light_audit_matches_the_cubic_check_on_every_small_loop():
    # every Latin square with identity 0 of order 4 and 5: accepted exactly
    # when (ab)c == a(bc) on all n^3 triples
    for n, loops, assoc in ((4, 4, 4), (5, 56, 6)):
        seen = accepted = 0
        for table in _normalized_latin_squares(n):
            cubic = np.array_equal(table[table], table[:, table])
            try:
                groups.Group(table)
                light = True
            except ValueError:
                light = False
            assert light == cubic
            seen += 1
            accepted += light
        assert (seen, accepted) == (loops, assoc)


def test_order_caps():
    with pytest.raises(ValueError):
        groups.make_cyclic(4097)
    with pytest.raises(ValueError):
        groups.make_symmetric(6)
    with pytest.raises(ValueError):
        groups.direct_product(groups.make_cyclic(100), groups.make_cyclic(100))


def test_from_spec():
    assert groups.from_spec("cyclic:8").order == 8
    assert groups.from_spec("elemabelian:2,3").order == 8
    assert groups.from_spec("quaternion8").name == "Q8"
    g = groups.from_spec("cyclic:4xcyclic:2")
    assert g.order == 8 and g.source == "cyclic:4xcyclic:2"
    with pytest.raises(ValueError):
        groups.from_spec("frobnicate:9")
    # quaternion8 takes no argument; it used to be dropped
    for spec in ("quaternion8:5", "quaternion8:abc", "quaternion8:"):
        with pytest.raises(ValueError, match=f"unknown group spec '{spec}'"):
            groups.from_spec(spec)
    with pytest.raises(ValueError, match="unknown group spec 'quaternion8:5'"):
        groups.from_spec("quaternion8:5xcyclic:2")


def test_json_round_trip(tmp_path):
    g = groups.make_dihedral(4)
    path = tmp_path / "d4.json"
    groups.save_group(g, str(path))
    loaded = groups.load_group(str(path))
    assert np.array_equal(loaded.table, g.table)
    assert loaded.labels == g.labels and loaded.name == g.name

    data = json.loads(path.read_text())
    data["table"][0][0] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        groups.load_group(str(bad))
