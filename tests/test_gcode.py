import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from test_acceptance import SWEEP_F2, SWEEP_F3
from gcodelab import cli, constructions
from gcodelab import gcode as gc
from gcodelab import groups, linalg, schur
from gcodelab.errors import GuardExceeded
from gcodelab.ffield import PrimeField
from gcodelab.galg import AlgElem
from gcodelab.groups import Group, Subgroup, from_spec, make_cyclic, make_elementary_abelian
from gcodelab.theorems import enumerate_cyclic_ideals

F2, F3 = PrimeField(2), PrimeField(3)
C2 = make_cyclic(2)
C4 = make_cyclic(4)


def test_ideal_from_generators_examples():
    full = gc.ideal_from_generators(C4, F2, [AlgElem.basis_elem(C4, F2, 0)])
    assert full.dim == 4

    c = AlgElem(C2, F3, [1, 2])
    line = gc.ideal_from_generators(C2, F3, [c])
    assert line.dim == 1 and line.basis.matrix.tolist() == [[1, 2]]

    h = Subgroup(C4, [0, 2])
    coset_sum = AlgElem(C4, F2, [1, 0, 1, 0])
    via_gen = gc.ideal_from_generators(C4, F2, [coset_sum])
    assert via_gen == gc.trivial_induced(C4, F2, h)
    assert via_gen.dim == h.index


def test_an_equal_table_copy_is_the_same_group():
    # a generator or subgroup over a second C4 is accepted, as f * g across
    # the two groups is; C2 x C2 and another field are still refused
    twin = make_cyclic(4)
    f = AlgElem(twin, F2, [1, 0, 1, 0])
    code = gc.ideal_from_generators(C4, F2, [f])
    assert code.basis == gc.ideal_from_generators(twin, F2, [f]).basis
    assert code == gc.trivial_induced(C4, F2, Subgroup(twin, [0, 2]))
    for group, field in ((make_elementary_abelian(2, 2), F2), (C4, F3)):
        with pytest.raises(ValueError, match="generator over a different group or field"):
            gc.ideal_from_generators(group, field, [f])
    with pytest.raises(ValueError, match="subgroup belongs to a different group"):
        gc.trivial_induced(make_elementary_abelian(2, 2), F2, Subgroup(twin, [0, 2]))


def test_trivial_induced_examples():
    whole = Subgroup(C4, range(4))
    top = gc.trivial_induced(C4, F2, whole)
    assert top.dim == 1 and top.basis.matrix.tolist() == [[1, 1, 1, 1]]
    assert top.min_distance() == 4

    triv = Subgroup(C4, [0])
    assert gc.trivial_induced(C4, F2, triv).dim == 4

    h = Subgroup(C4, [0, 2])
    code = gc.trivial_induced(C4, F2, h)
    assert code.basis.matrix.tolist() == [[1, 0, 1, 0], [0, 1, 0, 1]]
    assert code.min_distance() == 2
    rep = code.params()
    assert (rep.dimension, rep.distance, rep.product, rep.equality) == (2, 2, 4, True)


@pytest.mark.parametrize("spec", ["cyclic:8", "dihedral:4", "quaternion8", "symmetric:3", "cyclic:6"])
def test_trivial_induced_rows_are_already_canonical(spec):
    # the coset-indicator rows go to RowBasis without an elimination; they
    # must be exactly what rref makes of them, for every subgroup
    group = from_spec(spec)
    n = group.order
    subgroups = [
        Subgroup(group, members)
        for size in range(1, n + 1)
        for members in itertools.combinations(range(n), size)
        if members[0] == 0 and groups.is_subgroup(group, members)
    ]
    assert len(subgroups) >= 4
    for field in (F2, PrimeField(3)):
        for h in subgroups:
            rows = np.zeros((h.index, n), dtype=np.int64)
            for i, block in enumerate(oracles.cosets_scan(group.table.tolist(), h.members)):
                rows[i, list(block)] = 1
            code = gc.trivial_induced(group, field, h)
            assert code.basis == linalg.rref(rows, field, width=n)


def test_is_ideal():
    line = linalg.rref([[1, 0]], F2)
    assert not gc.is_ideal(C2, line)
    ker = linalg.kernel(np.ones((1, 4), dtype=np.int64), F2)
    assert gc.is_ideal(C4, ker)
    with pytest.raises(ValueError):
        gc.GCode(C2, line)
    code = gc.ideal_from_generators(C4, F3, [AlgElem(C4, F3, [1, 2, 0, 0])])
    assert gc.is_ideal(C4, code.basis)


def _candidate_subspaces(group, field, rng):
    """Random subspaces, ideals, and spans of a vector's orbit under one
    element, which are closed under that element but often not under all."""
    n, p = group.order, field.p
    for k in (1, 2, n // 2, n - 1):
        yield linalg.rref(rng.integers(0, p, size=(k, n)), field, width=n)
    for _ in range(3):
        f = AlgElem(group, field, rng.integers(0, p, size=n))
        yield gc.ideal_from_generators(group, field, [f]).basis
    orders = oracles.element_orders_scan(group.table.tolist())
    for g in range(1, n):
        v = AlgElem(group, field, rng.integers(0, p, size=n))
        orbit = [v]
        while len(orbit) < orders[g]:
            orbit.append(orbit[-1].right_translate(g))
        yield linalg.rref(np.array([w.coeffs for w in orbit]), field, width=n)


@pytest.mark.parametrize("spec", [
    "cyclic:8", "dihedral:4", "quaternion8", "elemabelian:2,3", "symmetric:3",
    "cyclic:6", "symmetric:4",
])
def test_is_ideal_matches_the_all_elements_scan(spec):
    group = from_spec(spec)
    table = group.table.tolist()
    rng = np.random.default_rng(len(spec))
    verdicts = set()
    for field in (F2, F3):
        for basis in _candidate_subspaces(group, field, rng):
            expect = oracles.is_ideal_scan(table, basis.matrix.tolist(), field.p)
            assert gc.is_ideal(group, basis) == expect
            verdicts.add(expect)
    assert verdicts == {True, False}


def test_is_ideal_translates_by_the_generators_only(monkeypatch):
    calls = []
    contains_rows = linalg.RowBasis.contains_rows

    def counted(self, rows):
        calls.append(self)
        return contains_rows(self, rows)

    monkeypatch.setattr(linalg.RowBasis, "contains_rows", counted)
    for spec in ("symmetric:4", "dihedral:4", "cyclic:256", "quaternion8xcyclic:3"):
        group = from_spec(spec)
        for field in (F2, F3):
            code = gc.augmentation_ideal(group, field)
            calls.clear()
            assert gc.is_ideal(group, code.basis)
            assert len(calls) == len(group.generators) < group.order


def test_min_distance_examples_and_oracle():
    assert oracles.full_algebra(C4, F2).min_distance() == 1
    for group, field in ((make_cyclic(6), F2), (C4, F3)):
        for _, code in enumerate_cyclic_ideals(group, field):
            expected = oracles.min_distance_scan(code.basis.matrix.tolist(), field.p)
            assert code.min_distance() == expected


def test_min_distance_guard_and_zero():
    with pytest.raises(ValueError):
        oracles.zero_code(C4, F2).min_distance()
    big = oracles.full_algebra(make_cyclic(8), F2)
    with pytest.raises(GuardExceeded):
        big.min_distance(guard=100)
    assert big.min_distance(guard=256) == 1


def test_min_distance_env_guard(monkeypatch):
    # guard=None reads DEFAULT_GUARD; no other setting changes the default
    monkeypatch.setattr(gc, "DEFAULT_GUARD", 4)
    with pytest.raises(GuardExceeded):
        oracles.full_algebra(C4, F2).min_distance()


def full_scan(rows, p):
    """The block loop over every message of arbitrary rows, not only of an
    ideal's basis: (least weight, first index) as `min_scan_chunked` gives."""
    top, bottom = gc._spans(rows, p)
    return gc._blocks(top, bottom, 0, len(top), rows.shape[1], p, 0)


def test_min_scan_is_deterministic_across_blocks():
    # 2^18 messages of 70 bits (two words) span four combining blocks of
    # 2^16; the minimum weight 17 is reached in the second block and again
    # in the fourth, and the first of the two must win
    rows = np.random.default_rng(8).integers(0, 2, size=(18, 70))
    assert full_scan(rows, 2) == oracles.min_scan_chunked(rows, 2) == (17, 92876)
    # a code keeps its first scan, so a fresh code object must reach the same answer
    one, two = (gc.augmentation_ideal(make_cyclic(16), F2) for _ in range(2))
    assert one.min_distance() == two.min_distance() == 2
    assert one.min_weight_codeword() == two.min_weight_codeword()


@st.composite
def scan_cases(draw):
    """Rows over F_p for p in {2, 3, 5, 7} and one prime past the uint8 sum
    range; widths on both sides of the 64-bit word boundary, k up to n."""
    p = draw(st.sampled_from((2, 3, 5, 7, 131)))
    n = draw(st.sampled_from((1, 2, 3, 5, 8, 63, 64, 65, 130)))
    k_max = min(n, {2: 12, 3: 7, 5: 5, 7: 4, 131: 2}[p])
    k = draw(st.sampled_from(sorted({1, k_max, draw(st.integers(1, k_max))})))
    seed = draw(st.integers(0, 2**32 - 1))
    rows = np.random.default_rng(seed).integers(0, p, size=(k, n))
    if draw(st.booleans()):  # sparse rows: low weights, many ties
        rows *= np.random.default_rng(seed + 1).random((k, n)) < 0.1
    return rows, p


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_split_scan_matches_the_chunked_scan_and_the_oracle(case):
    rows, p = case
    got = full_scan(rows, p)
    assert got == oracles.min_scan_chunked(rows, p)
    if p ** rows.shape[0] * rows.shape[1] <= 1 << 14:
        assert got[0] == oracles.min_distance_scan(rows.tolist(), p)


def assert_leading_one_minimum(code):
    """The scan equals the brute-force scan of the leading-digit-1 messages,
    its d is the minimum over every message, and the word it names has
    identity coefficient 1."""
    rows, p = code.basis.matrix, code.field.p
    lead = p ** (code.dim - 1)  # messages lead..2*lead-1 have leading digit 1
    got = code._min_scan()
    assert got == oracles.min_scan_chunked(rows, p, start=lead, stop=2 * lead)
    assert got[0] == oracles.min_scan_chunked(rows, p)[0]
    word = code.min_weight_codeword()
    assert word.coeffs[0] == 1 and word.weight() == got[0]


def test_split_scan_on_every_acceptance_sweep_ideal():
    checked = 0
    for specs, field in ((SWEEP_F2, F2), (SWEEP_F3, F3)):
        for spec in specs:
            for _, code in enumerate_cyclic_ideals(from_spec(spec), field):
                assert_leading_one_minimum(code)
                checked += 1
    assert checked == 154


IDEAL_SCAN_GROUPS = (
    ("cyclic:7", 7), ("symmetric:3", 5), ("cyclic:9", 3), ("symmetric:4", 3),
    ("dihedral:5", 2), ("quaternion8", 2), ("cyclic:65", 2), ("cyclic:128", 2),
)


@st.composite
def ideal_scan_cases(draw):
    """A right ideal of at most 2^16 codewords from one or two random
    generators.  A generator too large is multiplied on the left by x - 1 or
    by the element sum of <x>, for random x: s·f·F[G] is the image of
    f·F[G] under a linear map, so its dimension never grows.  C65 and C128
    give rows of two words."""
    spec, p = draw(st.sampled_from(IDEAL_SCAN_GROUPS))
    group, field = from_spec(spec), PrimeField(p)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        gen = AlgElem(group, field, rng.integers(0, p, group.order))
        for _ in range(12):
            if p ** gc.ideal_from_generators(group, field, [gen]).dim <= 1 << 16:
                break
            x = int(rng.integers(1, group.order))
            if rng.random() < 0.5:
                left = AlgElem.basis_elem(group, field, x) + AlgElem.basis_elem(
                    group, field, 0
                ).scale(p - 1)
            else:
                members = list(groups.subgroup_generated(group, [x]))
                left = AlgElem(group, field, np.isin(np.arange(group.order), members))
            if not (left * gen).is_zero():
                gen = left * gen
        gens.append(gen)
    code = gc.ideal_from_generators(group, field, gens)
    if code.dim == 0 or p**code.dim > 1 << 16:
        code = gc.ideal_from_generators(group, field, gens[:1])
    if code.dim == 0 or p**code.dim > 1 << 16:  # the repetition code
        code = gc.ideal_from_generators(group, field, [AlgElem.all_ones(group, field)])
    return code


@settings(max_examples=120, deadline=None)
@given(ideal_scan_cases())
def test_ideal_scan_matches_the_chunked_scan(code):
    assert_leading_one_minimum(code)


def test_scan_needs_column_0_as_row_0_pivot():
    for rows in ([[0, 1, 1]], [[1, 1, 0], [1, 0, 1]], [[2, 1, 0]], np.zeros((0, 3), int)):
        with pytest.raises(ValueError, match="column 0 must be row 0's pivot"):
            gc._split_scan(np.array(rows, dtype=np.int64).reshape(-1, 3), 3)


def test_rm_2_6_scan_is_pinned_and_fast(tmp_path, capsys):
    code = constructions.reed_muller(2, 6)
    # d = 16, first reached by the leading-1 message 2^21 + 2247
    assert code._min_scan() == (16, 2099399)
    ref = oracles.min_scan_chunked(code.basis.matrix, 2, start=1 << 21, stop=2099400)
    assert ref == (16, 2099399)
    path = str(tmp_path / "rm26.json")
    gc.save_code(code, path)
    t0 = time.perf_counter()
    rc = cli.run(["code", "params", "--code", path, "--json"])
    elapsed = time.perf_counter() - t0
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and (out["n"], out["k"], out["d"]) == (64, 22, 16)
    # the 2^21 messages with leading digit 1; one digit matmul per message
    # over all 2^22 took about 12 s
    assert elapsed < 2.0


def test_min_scan_runs_once_per_code(monkeypatch):
    scanned = []
    scan = gc.GCode._min_scan

    def counted(self):
        scanned.append(self)
        return scan(self)

    monkeypatch.setattr(gc.GCode, "_min_scan", counted)
    code = gc.augmentation_ideal(C4, F2)
    assert code.min_distance() == 2
    assert code.min_weight_codeword().weight() == 2
    assert code.params().distance == 2
    assert scanned == [code]


def test_cached_scan_still_checks_the_guard():
    code = oracles.full_algebra(make_cyclic(8), F2)
    assert code.min_distance() == 1  # scanned and kept
    for call in (code.min_distance, code.min_weight_codeword, code.params):
        with pytest.raises(GuardExceeded):
            call(guard=100)
    assert code.min_distance(guard=256) == 1


def test_min_weight_codeword_is_first_with_identity_coefficient_1():
    code = gc.trivial_induced(C4, F2, Subgroup(C4, [0, 2]))
    word = code.min_weight_codeword()
    # message (0,1), the second basis row, comes first but misses the
    # identity; (1,0), the first row, is the first leading-1 message
    assert word.coeffs.tolist() == [1, 0, 1, 0]
    assert word.weight() == code.min_distance()
    # over F_3 the scalar multiple with identity coefficient 1
    line = gc.ideal_from_generators(C2, F3, [AlgElem(C2, F3, [2, 1])])
    assert line.min_weight_codeword().coeffs.tolist() == [1, 2]


def test_dual_examples():
    assert oracles.full_algebra(C4, F2).dual().dim == 0
    assert oracles.zero_code(C4, F2).dual().dim == 4
    for group, field in ((make_cyclic(6), F2), (C4, F3)):
        for _, code in enumerate_cyclic_ideals(group, field):
            dd = code.dual().dual()
            assert dd == code  # involution; dual closure checked at construction


def test_self_orthogonal_examples():
    assert oracles.zero_code(C4, F2).is_self_orthogonal()
    line = gc.ideal_from_generators(C2, F2, [AlgElem(C2, F2, [1, 1])])
    assert line.is_self_orthogonal()
    assert not oracles.full_algebra(C2, F2).is_self_orthogonal()


def test_self_orthogonal_matches_augmentation_route():
    c8 = make_cyclic(8)
    even = gc.augmentation_ideal(c8, F2)
    for _, code in enumerate_cyclic_ideals(c8, F2):
        square = schur.schur_product(code, code)
        assert code.is_self_orthogonal() == square.issubset(even)


def test_params_bound_and_equality():
    rep = oracles.full_algebra(make_cyclic(8), F2).params()
    assert rep.product == 8 and rep.equality
    zero = oracles.zero_code(C4, F2).params()
    assert zero.distance is None and zero.product is None and not zero.equality
    assert zero.bound_ok


def test_even_distance_on_small_binary_p_groups():
    for group in (C4, make_elementary_abelian(2, 2), make_cyclic(8)):
        for _, code in enumerate_cyclic_ideals(group, F2):
            if 0 < code.dim < group.order:
                assert code.min_distance() % 2 == 0


def test_augmentation_ideal():
    aug = gc.augmentation_ideal(C4, F3)
    assert aug.dim == 3
    ones = AlgElem.all_ones(C4, F3)
    assert all(
        AlgElem(C4, F3, row).inner(ones) == 0 for row in aug.basis.matrix
    )


def test_code_json_round_trip(tmp_path):
    code = gc.trivial_induced(C4, F2, Subgroup(C4, [0, 2]))
    path = tmp_path / "code.json"
    gc.save_code(code, str(path))
    loaded = gc.load_code(str(path))
    assert loaded.basis == code.basis
    assert loaded.params() == code.params()

    data = json.loads(path.read_text())
    data["basis"][0][0] = 0  # no longer canonical / not the same ideal
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        gc.load_code(str(bad))


def test_code_json_embedded_group(tmp_path):
    from gcodelab.groups import Group

    anon = Group(C4.table, labels=C4.labels, name="anon")  # no source spec
    code = oracles.full_algebra(anon, F3)
    path = tmp_path / "anon.json"
    gc.save_code(code, str(path))
    data = json.loads(path.read_text())
    assert isinstance(data["group"], dict)
    assert gc.load_code(str(path)).dim == 4


def test_non_ideal_basis_rejected_on_load(tmp_path):
    payload = {"group": "cyclic:2", "p": 2, "basis": [[1, 0]]}
    path = tmp_path / "notideal.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        gc.load_code(str(path))


def test_equality_and_key_depend_on_the_group():
    # the same basis over C4 and over C2 x C2 spans ideals of different algebras
    c4, v4 = oracles.full_algebra(C4, F2), oracles.full_algebra(make_elementary_abelian(2, 2), F2)
    assert c4.basis == v4.basis
    assert c4 != v4 and c4.key() != v4.key() and hash(c4) != hash(v4)
    assert len({c4, v4}) == 2
    # a separately built group with the same Cayley table gives equal codes
    twin = Group(C4.table, labels=C4.labels, name="twin")
    same = oracles.full_algebra(twin, F2)
    assert same == c4 and same.key() == c4.key() and hash(same) == hash(c4)
