import json
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import oracles
import pytest

from gcodelab import constructions, galg, gcode as gc, groups, linalg, schur, theorems
from gcodelab.errors import UnsupportedCover, VerificationError
from gcodelab.ffield import PrimeField
from gcodelab.galg import AlgElem, translate_weights
from gcodelab.groups import (
    Subgroup,
    from_spec,
    make_cyclic,
    make_elementary_abelian,
    make_symmetric,
    subgroup_generated,
)

F2, F3 = PrimeField(2), PrimeField(3)
C2 = make_cyclic(2)
C8 = make_cyclic(8)
S3 = make_symmetric(3)


def test_greedy_support_rank_examples():
    t, seq = oracles.greedy_support_rank(C8, {0})
    assert t == 8 and seq == list(range(8))
    t, _ = oracles.greedy_support_rank(C8, range(8))
    assert t == 1
    h = subgroup_generated(C8, [4])
    t, seq = oracles.greedy_support_rank(C8, h.members)
    assert t == h.index
    # the kept representatives tile the group exactly like the coset blocks
    blocks = oracles.cosets_scan(C8.table.tolist(), h.members)
    tiled = sorted(tuple(sorted(int(C8.table[x, g]) for x in h.members)) for g in seq)
    assert tiled == blocks


def test_greedy_support_rank_validation():
    with pytest.raises(ValueError):
        oracles.greedy_support_rank(C8, set())
    with pytest.raises(ValueError):
        oracles.greedy_support_rank(C8, {0}, order=[0, 1])


def test_uncertainty_check_examples():
    ones = AlgElem.all_ones(C8, F2)
    assert theorems.uncertainty_check(ones) == (8, 1, 1, 8)
    unit = AlgElem.basis_elem(C8, F2, 0)
    assert theorems.uncertainty_check(unit) == (1, 8, 8, 8)
    c = AlgElem(C2, F3, [1, 2])
    assert theorems.uncertainty_check(c) == (2, 1, 1, 2)
    with pytest.raises(ValueError):
        theorems.uncertainty_check(AlgElem.zero(C8, F2))


def test_uncertainty_holds_under_shuffled_orders():
    rng = np.random.default_rng(1)
    group = make_elementary_abelian(2, 2)
    for bits in range(1, 16):
        f = AlgElem(group, F2, [(bits >> i) & 1 for i in range(4)])
        base = theorems.uncertainty_check(f)
        for _ in range(3):
            order = [int(x) for x in rng.permutation(4)]
            shuffled = theorems.uncertainty_check(f, order=order)
            assert shuffled.rank == base.rank >= shuffled.cover_rank


def test_equality_analysis_round_trip_c8_subgroups():
    for seed in (0, 4, 2, 1):
        h = subgroup_generated(C8, [seed])
        code = gc.trivial_induced(C8, F2, h)
        witness = theorems.equality_analysis(code)
        assert witness is not None
        assert witness.subgroup.members == h.members
        assert witness.generator.support() == set(h.members)
        # idempotent exists only for the trivial subgroup (odd order)
        assert (witness.idempotent is not None) == (len(h) == 1)


def test_each_subgroup_is_certified_once(monkeypatch):
    # normal_p_complement, equality_analysis and fixed_point_structure build
    # the Subgroup directly; its constructor is the one subgroup test
    c16 = make_cyclic(16)
    d15 = from_spec("dihedral:15")
    ideals = [code for _, code in theorems.enumerate_cyclic_ideals(c16, F2)]
    fixed = gc.trivial_induced(c16, F2, Subgroup(c16, [0, 4, 8, 12]))
    calls = []
    real = groups.is_subgroup

    def counted(g, members):
        calls.append(tuple(members))
        return real(g, members)

    monkeypatch.setattr(groups, "is_subgroup", counted)
    # the verifiers may hold a reference of their own
    monkeypatch.setattr(theorems, "is_subgroup", counted, raising=False)
    monkeypatch.setattr(schur, "is_subgroup", counted, raising=False)

    comp = groups.normal_p_complement(d15, 2)
    assert comp is not None and len(comp) == 15
    assert len(calls) == 1

    calls.clear()
    witnesses = [theorems.equality_analysis(code) for code in ideals]
    certified = sum(w is not None for w in witnesses)
    assert certified >= 4
    assert len(calls) == certified

    calls.clear()
    assert schur.fixed_point_structure(fixed).members == (0, 4, 8, 12)
    assert len(calls) == 1


def test_equality_analysis_ternary_line():
    code = gc.ideal_from_generators(C2, F3, [AlgElem(C2, F3, [1, 2])])
    witness = theorems.equality_analysis(code)
    assert witness.subgroup.members == (0, 1)
    assert witness.generator.coeffs.tolist() == [1, 2]
    e = witness.idempotent
    assert e is not None and e.coeffs.tolist() == [2, 1]
    assert e.convolve(e) == e
    assert gc.ideal_from_generators(C2, F3, [e]) == code


def test_equality_analysis_none_above_bound():
    assert theorems.equality_analysis(constructions.reed_muller(1, 3)) is None
    with pytest.raises(ValueError):
        theorems.equality_analysis(oracles.zero_code(C8, F2))


def test_idempotent_generator_cases():
    # p = 2, |H| = 2: no idempotent
    line = gc.ideal_from_generators(C2, F2, [AlgElem(C2, F2, [1, 1])])
    w = theorems.equality_analysis(line)
    assert w is not None and w.idempotent is None
    # |H| = 1: the unit-supported generator normalizes to an idempotent
    full = oracles.full_algebra(C2, F3)
    w = theorems.equality_analysis(full)
    assert w is not None and w.idempotent is not None
    e = w.idempotent
    assert e.convolve(e) == e


def test_idempotent_generator_rejects_a_different_ideal():
    # e = (2, 1) is idempotent: it lies in the full algebra of C2 over F3 but
    # generates only a line, and it has the dimension of the line (1, 1) but
    # does not lie in it
    c = AlgElem(C2, F3, [1, 2])
    ones = gc.ideal_from_generators(C2, F3, [AlgElem.all_ones(C2, F3)])
    for code in (oracles.full_algebra(C2, F3), ones):
        with pytest.raises(VerificationError, match="idempotent generates a different ideal"):
            theorems.idempotent_generator(code, Subgroup(C2, [0, 1]), c)


def test_equality_analysis_rank_checks_catch_a_mutation(monkeypatch):
    # the ternary line (H = C2) and the full algebra (H = {1}): c generates
    # each code and restricts to a line on H, and a rank read one too high
    # trips the first check (every call) or the second (the second call)
    line = gc.ideal_from_generators(C2, F3, [AlgElem(C2, F3, [1, 2])])
    full = oracles.full_algebra(C2, F3)
    subgroups = [theorems.equality_analysis(code).subgroup.members for code in (line, full)]
    assert subgroups == [(0, 1), (0,)]
    real = linalg.rank
    for mutated, reason in [(1, "fails to regenerate the code"), (2, "is not a line")]:
        for code in (line, full):
            calls = []

            def rank(a, field):
                calls.append(a.shape)
                return real(a, field) + (len(calls) >= mutated)

            monkeypatch.setattr(linalg, "rank", rank)
            with pytest.raises(VerificationError, match=reason):
                theorems.equality_analysis(code)
            assert len(calls) == mutated


def test_projective_cover_cases():
    res = theorems.projective_cover_trivial(C2, F3)
    assert res.method == "semisimple"
    assert res.code.basis.matrix.tolist() == [[1, 1]]

    res = theorems.projective_cover_trivial(C8, F2)
    assert res.method == "p-group" and res.code.dim == 8

    res = theorems.projective_cover_trivial(S3, F2)
    assert res.method == "p-nilpotent" and res.code.dim == 2
    sums = res.code.basis.matrix.sum(axis=1) % 2
    assert sums.any()  # augmentation does not vanish on the cover

    with pytest.raises(UnsupportedCover):
        theorems.projective_cover_trivial(make_symmetric(4), F2)


COVER_SPECS = [
    "cyclic:1", "cyclic:2", "cyclic:6", "cyclic:8", "cyclic:12", "cyclic:15",
    "symmetric:3", "symmetric:4", "symmetric:5", "dihedral:4", "dihedral:5",
    "dihedral:6", "quaternion8", "elemabelian:3,2", "cyclic:4xcyclic:2",
]


@pytest.mark.parametrize("spec", COVER_SPECS)
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_projective_cover_matches_the_three_case_oracle(spec, p):
    group = from_spec(spec)
    want = oracles.projective_cover_cases(group.table.tolist(), group.inverse.tolist(), p)
    if want is None:
        with pytest.raises(UnsupportedCover):
            theorems.projective_cover_trivial(group, PrimeField(p))
        return
    res = theorems.projective_cover_trivial(group, PrimeField(p))
    assert (res.code.basis.matrix.tolist(), res.method) == want


def test_schur_square_theorem_check_examples():
    line = gc.ideal_from_generators(C2, F3, [AlgElem(C2, F3, [1, 2])])
    v = theorems.schur_square_theorem_check(line)
    assert not v["self_orthogonal"] and v["square_dim"] == 1
    assert "cover_dim_lower_bound" in v["clauses"]
    assert "p_group_square_full" not in v["clauses"]  # C2 is not a 3-group

    for _, code in theorems.enumerate_cyclic_ideals(C8, F2):
        verdict = theorems.schur_square_theorem_check(code)
        if not verdict["self_orthogonal"]:
            assert verdict["square_dim"] == 8  # non-self-orthogonal fills a 2-group

    tiny = gc.ideal_from_generators(C2, F2, [AlgElem(C2, F2, [1, 1])])
    v = theorems.schur_square_theorem_check(tiny)
    assert v["self_orthogonal"] and v["square_dim"] == 1


def test_solv_check_instances():
    cover = theorems.projective_cover_trivial(S3, F2).code
    v = theorems.solv_check(cover)
    assert v["applicable"] and v["square_is_cover"] and v["code_in_cover"]

    v = theorems.solv_check(oracles.full_algebra(S3, F2))
    assert v["applicable"] and not v["square_is_cover"] and not v["code_in_cover"]

    ones = gc.ideal_from_generators(S3, F2, [AlgElem.all_ones(S3, F2)])
    v = theorems.solv_check(ones)
    assert not v["applicable"] and v["code_in_cover"] and not v["square_is_cover"]

    with pytest.raises(ValueError):
        theorems.solv_check(oracles.full_algebra(C2, F3))


def test_solv_check_biconditional_sweep_s3():
    for _, code in theorems.enumerate_cyclic_ideals(S3, F2):
        if not code.is_zero():
            assert theorems.solv_check(code)["ok"]


def test_enumerate_cyclic_ideals_c4():
    ideals = theorems.enumerate_cyclic_ideals(make_cyclic(4), F2)
    assert len(ideals) == 4  # nested chain of nonzero principal ideals
    dims = sorted(code.dim for _, code in ideals)
    assert dims == [1, 2, 3, 4]
    keys = {code.key() for _, code in ideals}
    assert len(keys) == 4
    assert all(fidx >= 1 for fidx, _ in ideals)


def test_verify_drivers_clean_and_deterministic():
    group = make_cyclic(4)
    rep1 = theorems.verify_all(group, F2)
    rep2 = theorems.verify_all(group, F2)
    assert rep1["failures"] == [] and rep1["checked"] > 0
    assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    rep = theorems.verify_all(make_cyclic(3), F3)
    assert rep["failures"] == []


def test_verify_uncertainty_sampling():
    group = make_cyclic(4)
    rep = theorems.verify_uncertainty(group, F2, sample=17, sample_seed=5)
    assert rep["checked"] == 17 and rep["failures"] == []


@pytest.mark.parametrize("spec, p", [("cyclic:64", 2), ("cyclic:65", 2), ("symmetric:5", 3)])
def test_greedy_lengths_match_the_greedy_walk(spec, p):
    # the sampled f of a sweep, plus sparse ones whose greedy walks are long
    # and whose supports straddle the word boundaries
    group = from_spec(spec)
    n = group.order
    digits = theorems._generator_digits(theorems._sample_indices(n, p, 40, 3), n, p)
    sparse = np.zeros((4, n), dtype=np.int64)
    sparse[0, 0] = sparse[1, 63] = sparse[2, [1, 64 % n]] = sparse[3, [n - 1, 62, 5]] = 1
    bits = (np.vstack([digits, sparse]) != 0).astype(np.int64)
    weights = translate_weights(group)
    full = np.bitwise_or.reduce(weights, axis=(1, 2))
    masks = bits @ weights
    shuffled = random.Random(theorems._SHUFFLE_SEED).sample(range(n), n)
    for order in (np.arange(n), shuffled):
        t, covers = theorems._greedy_lengths(masks, order, full)
        want = [oracles.greedy_support_rank(group, np.flatnonzero(b), order)[0] for b in bits]
        assert t.tolist() == want and covers.all()
    # no support covers nothing; a union that fills word 0 alone covers the
    # group only when there is no second word
    lone = np.zeros_like(masks[:, :2])
    lone[0, 1, 0] = full[0]
    t, covers = theorems._greedy_lengths(lone, shuffled, full)
    assert t.tolist() == [0, 1] and covers.tolist() == [False, len(full) == 1]


@pytest.mark.parametrize(
    "spec, p, sample, seed",
    [
        pytest.param("cyclic:64", 2, 200, 0, id="cyclic:64-2-200"),
        pytest.param("cyclic:70", 2, 300, 3, id="cyclic:70-2-300"),  # rows span two words
        pytest.param("cyclic:128", 2, 50, 0, id="cyclic:128-2-50"),
        pytest.param("symmetric:5", 3, 50, 0, id="symmetric:5-3-50"),
    ],
)
def test_sampled_uncertainty_past_order_62(spec, p, sample, seed, monkeypatch):
    # every f is audited: popcounts of int64 words count |x|, wrong when bit 63 is set
    monkeypatch.setattr(theorems, "_CROSSCHECK_STRIDE", 1)
    group, field = from_spec(spec), PrimeField(p)
    rep = theorems.verify_uncertainty(group, field, sample=sample, sample_seed=seed)
    assert rep["checked"] == sample and rep["failures"] == []


def test_sampled_uncertainty_ranks_on_its_own_masks(monkeypatch):
    # the ranks come from the chunk's mask words: no ideal list, no unpacking
    def forbidden(*args):
        raise AssertionError("the sampled sweep builds no ideal list")

    monkeypatch.setattr(linalg, "unpack_f2", forbidden)
    monkeypatch.setattr(theorems, "_eliminate", forbidden)
    rep = theorems.verify_uncertainty(make_cyclic(70), F2, sample=300, sample_seed=3)
    assert rep["checked"] == 300 and rep["failures"] == []


def test_sampled_uncertainty_over_f3_gathers_digits_as_bytes():
    # S5/F3 at 300 samples peaked at 76 MB while the stack was gathered as
    # int64, and at 47.5 MB while rref_stack returned an int64 copy of it
    tracemalloc.start()
    try:
        rep = theorems.verify_uncertainty(make_symmetric(5), F3, sample=300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == {"group": "S5", "p": 3, "checked": 300, "failures": []}
    assert peak < 32 * 2**20


def test_sampled_uncertainty_at_order_128_keeps_no_translate_stack():
    # the (chunk, n, n) int64 stack of translate matrices alone was 134 MB
    tracemalloc.start()
    try:
        rep = theorems.verify_uncertainty(make_cyclic(128), F2, sample=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["checked"] == 1000 and rep["failures"] == []
    assert peak < 32 * 2**20


def test_exhaustive_verify_all_does_not_load_numpy_random():
    script = (
        "import contextlib, io, sys\n"
        "from gcodelab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['verify', 'all', '--group', 'cyclic:8', '--p', '2', '--json']) == 0\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def _unpruned_ideals(group, field):
    """Reference sweep: every nonzero generator eliminated on its own, through
    its multiplication matrix, deduplicated by first appearance."""
    n, p = group.order, field.p
    seen = {}
    for fidx in range(1, p**n):
        coeffs = [(fidx // p**i) % p for i in range(n)]
        f = AlgElem(group, field, coeffs)
        key = linalg.rref(f.multiplication_matrix().T, field, width=n).key()
        seen.setdefault(key, fidx)
    return sorted((fidx, key) for key, fidx in seen.items())


@pytest.mark.parametrize(
    "spec, p",
    [
        ("cyclic:8", 2),
        ("dihedral:4", 2),
        ("quaternion8", 2),
        ("symmetric:3", 2),
        ("symmetric:3", 3),
        ("elemabelian:3,2", 3),
    ],
)
def test_orbit_pruned_enumeration_matches_unpruned_reference(spec, p):
    group, field = from_spec(spec), PrimeField(p)
    pruned = theorems.enumerate_cyclic_ideals(group, field)
    assert [(i, c.basis.key()) for i, c in pruned] == _unpruned_ideals(group, field)


_ORBIT_CASES = (
    [(f"cyclic:{n}", 2) for n in range(1, 17)]
    + [(f"cyclic:{n}", 3) for n in range(1, 10)]
    + [(f"cyclic:{n}", 5) for n in range(1, 7)]
    + [(f"cyclic:{n}", 7) for n in range(1, 6)]
    + [(spec, 2) for spec in ("dihedral:4", "quaternion8", "symmetric:3", "cyclic:4xcyclic:2")]
    + [("symmetric:3", 3), ("cyclic:3xcyclic:3", 3)]
)


@pytest.mark.parametrize("spec, p", _ORBIT_CASES)
def test_orbit_minima_match_the_oracles(spec, p):
    # group.table is the action f -> c*f*g
    group = from_spec(spec)
    got = theorems._orbit_minima(group.table, p).tolist()
    rep_of = oracles.orbit_minima_matmul(group.table, group.inverse, p)
    assert got == np.flatnonzero(rep_of == np.arange(p**group.order))[1:].tolist()
    if p**group.order <= 1 << 12:
        rep_of = oracles.orbit_minima_scan(group.table.tolist(), p)
        assert got == [i for i, rep in enumerate(rep_of) if rep == i][1:]


@pytest.mark.parametrize(
    "n, p, blocks",
    [(1, 2, [(1, 2)]), (1, 3, [(1, 3)]), (10, 2, [(1, 1024)]),
     (20, 2, [(1, 1024), (1024, 1024)]), (12, 3, [(1, 729), (729, 729)]),
     (8, 5, [(1, 625), (625, 625)]), (5, 7, [(1, 343), (343, 49)])],
)
def test_orbit_tables_split_the_digits_into_blocks(n, p, blocks):
    # blocks of the largest digit count s with p^s <= _TABLE_SIZE, as
    # (p^first digit, p^width); one column per (c, translate) pair
    tables = theorems._orbit_tables(make_cyclic(n).table, p)
    assert [(step, size) for step, size, _ in tables] == blocks
    for _, size, table in tables:
        assert table.shape == (size, n * (p - 1))


def test_orbit_tables_hold_indices_up_to_2_63():
    # C63/F2 is the largest binary order whose indices fit int64: in every
    # column the block maxima sum to the index of the all-ones word, 2^63 - 1
    tables = theorems._orbit_tables(make_cyclic(63).table, 2)
    assert sum(t.max(axis=0).astype(object) for _, _, t in tables).tolist() == [2**63 - 1] * 63
    with pytest.raises(ValueError, match=r"need p\^\|G\| <= 2\^63, not 2\^64"):
        theorems._orbit_tables(make_cyclic(64).table, 2)


@pytest.mark.parametrize("spec, p", [("symmetric:3", 3), ("cyclic:7", 3), ("dihedral:6", 2)])
def test_orbit_table_columns_are_the_indices_of_c_f_g(spec, p):
    # the orbit minimum is the same for any relabelling of the translates,
    # so the columns are checked one by one: column (c - 1) * n + j of the
    # summed block terms is the index of c * f * g_j under group.table, and
    # under the uncertainty sweep's tables of c * f* * g_j and (c * f * g_j)*
    group, field = from_spec(spec), PrimeField(p)
    n = group.order
    idx = np.random.default_rng(0).integers(0, p**n, size=200)
    place = p ** np.arange(n)
    actions = [
        (group.table, lambda f, g: f.right_translate(g)),
        (group.table[group.inverse], lambda f, g: oracles.star(f).right_translate(g)),
        (group.inverse[group.table], lambda f, g: oracles.star(f.right_translate(g))),
    ]
    for table, act in actions:
        tables = theorems._orbit_tables(table, p)
        got = sum(block[(idx // step) % size] for step, size, block in tables)
        for i, row in zip(idx.tolist(), got):
            f = AlgElem(group, field, (i // place) % p)
            want = [int(act(f, g).scale(c).coeffs @ place) for c in range(1, p) for g in range(n)]
            assert row.tolist() == want


def test_sweep_orbits_ranks_match_matrix_rank():
    # off F_2 too: the ranks come from the F_p elimination there
    for group, field in ((S3, F2), (make_cyclic(10), F2), (make_cyclic(6), F3), (S3, F3)):
        n, p = group.order, field.p
        orbits = theorems.sweep_orbits(group, field)
        assert orbits.minima.tolist() == theorems._orbit_minima(group.table, p).tolist()
        assert len(orbits.ranks) == len(orbits.minima)
        for fidx, got in zip(orbits.minima.tolist(), orbits.ranks.tolist()):
            f = AlgElem(group, field, [(fidx // p**i) % p for i in range(n)])
            rank = linalg.rank(f.multiplication_matrix(), field)
            assert got == rank, (group.name, p, fidx)


def test_sampled_enumeration_on_two_word_rows_matches_per_generator_rref():
    # order 70: each translate row spans two uint64 words in f2_rref_stack
    group = make_cyclic(70)
    found = theorems.enumerate_cyclic_ideals(group, F2, sample=20, sample_seed=3)
    expected: dict[bytes, tuple[int, linalg.RowBasis]] = {}
    for fidx in theorems._sample_indices(70, 2, 20, 3).tolist():
        f = AlgElem(group, F2, [(fidx >> i) & 1 for i in range(70)])
        basis = linalg.rref(f.multiplication_matrix().T, F2)
        expected.setdefault(basis.key(), (fidx, basis))
    assert [(tag, code.basis.key()) for tag, code in found] == [
        (tag, key) for key, (tag, _) in expected.items()
    ]
    assert all(code.basis == expected[code.basis.key()][1] for _, code in found)


# the p-groups the catalogue builds at small order, with their characteristic
_P_GROUPS = [
    *[
        (spec, 2)
        for spec in ("cyclic:2", "cyclic:4", "cyclic:8", "cyclic:16", "elemabelian:2,2")
        + ("elemabelian:2,3", "cyclic:4xcyclic:2", "dihedral:4", "quaternion8", "dihedral:8")
    ],
    *[(spec, 3) for spec in ("cyclic:3", "cyclic:9", "cyclic:3xcyclic:3")],
    ("cyclic:5", 5),
    ("cyclic:7", 7),
]


def _no_units(digits, group, p):
    return np.zeros(len(digits), dtype=bool)


@pytest.mark.parametrize("spec, p", _P_GROUPS)
def test_over_a_p_group_the_units_are_the_generators_of_nonzero_sum(spec, p):
    # F_p[G] is local with the augmentation ideal as its maximal ideal: f
    # has rank |G| exactly when its coefficient sum is nonzero, checked on
    # each f's own multiplication matrix (on each orbit minimum past 2^12
    # indices: rank and sum are constant on the orbits of f -> c*f*g)
    group, field = from_spec(spec), PrimeField(p)
    n = group.order
    if p**n <= 1 << 12:
        idx = np.arange(1, p**n, dtype=np.int64)
    else:
        idx = theorems._orbit_minima(group.table, p)
    digits = theorems._generator_digits(idx, n, p)
    full = [
        linalg.rank(AlgElem(group, field, row).multiplication_matrix(), field) == n
        for row in digits
    ]
    assert full == (digits.sum(axis=1) % p != 0).tolist()
    assert theorems._units(digits, group, p).tolist() == full
    assert any(full) and not all(full)


@pytest.mark.parametrize(
    "spec, coeffs, rank",
    [("cyclic:3", [1, 1, 1], 1), ("symmetric:3", [1, 0, 0, 1, 1, 0], 2)],
    ids=["C3", "S3"],
)
def test_off_a_p_group_a_nonzero_sum_is_no_unit(spec, coeffs, rank):
    # over F_2 the sum of a subgroup of order 3 has sum 1 but generates the
    # span of its coset indicators, so the rule needs the p-group gate
    group = from_spec(spec)
    f = AlgElem(group, F2, coeffs)
    assert f.coeffs.sum() % 2 == 1
    assert linalg.rank(f.multiplication_matrix(), F2) == rank < group.order
    assert not theorems._units(f.coeffs[None], group, 2).any()
    orbits = theorems.sweep_orbits(group, F2)
    m = int(f.coeffs @ 2 ** np.arange(group.order))
    assert orbits.ranks[np.searchsorted(orbits.minima, m)] == rank


@pytest.mark.parametrize("spec, p", _P_GROUPS)
def test_sweep_orbits_match_the_kernel_on_every_minimum(spec, p, monkeypatch):
    # the same minima, ranks, tags and codes with the unit rule off, every
    # minimum then going through the elimination kernel
    group, field = from_spec(spec), PrimeField(p)
    got = theorems.sweep_orbits(group, field)
    monkeypatch.setattr(theorems, "_units", _no_units)
    want = theorems.sweep_orbits(group, field)
    assert got.minima.tolist() == want.minima.tolist()
    assert got.ranks.tolist() == want.ranks.tolist()
    assert [(t, c.basis) for t, c in got.ideals] == [(t, c.basis) for t, c in want.ideals]
    assert got.ideals[0][0] == 1 and got.ranks[0] == group.order


@pytest.mark.parametrize("n, sample", [(64, 200), (128, 1000)])
def test_sampled_sweeps_match_the_kernel_on_every_sample(n, sample, monkeypatch):
    # the whole algebra enters at the first sampled unit, in tag order (after
    # a non-unit's ideal on C64); the uncertainty sweep's ranks are read as
    # _reduce returns them
    group = make_cyclic(n)
    ranked: list[np.ndarray] = []
    reduce = theorems._reduce

    def spied(*args):
        out = reduce(*args)
        ranked.append(out[1])
        return out

    monkeypatch.setattr(theorems, "_reduce", spied)
    runs = []
    for rule in (theorems._units, _no_units):
        monkeypatch.setattr(theorems, "_units", rule)
        ideals = theorems.enumerate_cyclic_ideals(group, F2, sample=sample)
        ranked.clear()
        report = theorems.verify_uncertainty(group, F2, sample=sample)
        runs.append(([(t, c.basis) for t, c in ideals], report, np.concatenate(ranked).tolist()))
    assert runs[0] == runs[1]
    ideals, report, ranks = runs[0]
    picks = theorems._sample_indices(n, 2, sample, 0)
    odd = theorems._generator_digits(picks, n, 2).sum(axis=1) % 2 == 1
    tags = [t for t, _ in ideals]
    assert tags == sorted(tags) and report["failures"] == []
    assert [t for t, basis in ideals if basis.dim == n] == [picks[odd][0]]
    assert [rank == n for rank in ranks] == odd.tolist()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_over_the_trivial_group_the_kernels_get_no_matrix(p, monkeypatch):
    # C1 is a p-group for every p, so each nonzero f is a unit
    field = PrimeField(p)
    shapes = []

    def spy(kernel):
        def spied(stack, *args):
            shapes.append(stack.shape)
            return kernel(stack, *args)

        return spied

    for name in ("f2_rref_stack", "rref_stack"):
        monkeypatch.setattr(linalg, name, spy(getattr(linalg, name)))
    orbits = theorems.sweep_orbits(make_cyclic(1), field)
    assert orbits.minima.tolist() == [1] and orbits.ranks.tolist() == [1]
    assert [(t, c.basis.matrix.tolist()) for t, c in orbits.ideals] == [(1, [[1]])]
    assert len(shapes) == 1 and shapes[0][0] == 0


# (spec, p, sample): p-groups, where the whole algebra enters the list at the
# first unit uneliminated, then groups where it comes out of the kernel
_WHOLE_ALGEBRA_CASES = [
    ("cyclic:1", 2, None),
    ("cyclic:1", 3, None),
    ("cyclic:1", 181, None),
    ("cyclic:9", 3, None),
    ("dihedral:4", 2, None),
    ("cyclic:5", 5, None),
    ("cyclic:64", 2, 200),
    ("cyclic:128", 2, 1000),
    ("cyclic:6", 2, None),
    ("symmetric:3", 2, None),
    ("cyclic:8", 5, None),
    ("cyclic:70", 2, 300),
    ("cyclic:9", 181, 20),
]


@pytest.mark.parametrize("spec, p, sample", _WHOLE_ALGEBRA_CASES)
def test_the_whole_algebra_is_listed_at_the_first_unit(spec, p, sample, monkeypatch):
    # listed once, equal to F_p[G], under the first generator of rank |G|
    # (index 1, f = 1, when exhaustive) and in tag order; every other ideal,
    # and off a p-group the whole algebra too, is a basis of kernel rows
    group, field = from_spec(spec), PrimeField(p)
    n = group.order
    made: list[int] = []
    reduced_basis = linalg.reduced_basis

    def spied(*args):
        basis = reduced_basis(*args)
        made.append(basis.dim)
        return basis

    monkeypatch.setattr(linalg, "reduced_basis", spied)
    ideals = theorems.enumerate_cyclic_ideals(group, field, sample=sample)
    if sample is None:
        picks = theorems._orbit_minima(group.table, p)
    else:
        picks = theorems._sample_indices(n, p, sample, 0)
    first = next(
        int(f)
        for f, row in zip(picks, theorems._generator_digits(picks, n, p))
        if linalg.rank(AlgElem(group, field, row).multiplication_matrix(), field) == n
    )
    assert sample is not None or first == 1
    tags = [t for t, _ in ideals]
    assert tags == sorted(set(tags))
    whole = [(t, c) for t, c in ideals if c.dim == n]
    assert whole == [(first, oracles.full_algebra(group, field))]
    p_group = groups.is_p_group(group, p)
    assert (n in made) != p_group
    assert len(made) == len(ideals) - p_group


def test_the_audit_reads_no_unit_rule(monkeypatch):
    # uncertainty_checks ranks every matrix, units too, so it tests the rule
    def forbidden(*args):
        raise AssertionError("the audit used the unit rule")

    coeffs = theorems._generator_digits(np.arange(1, 256, dtype=np.int64), 8, 2)
    want = [tuple(r) for r in theorems.uncertainty_checks(C8, F2, coeffs)]
    monkeypatch.setattr(theorems, "_units", forbidden)
    assert [tuple(r) for r in theorems.uncertainty_checks(C8, F2, coeffs)] == want
    assert [r[1] == 8 for r in want] == (coeffs.sum(axis=1) % 2 == 1).tolist()


@pytest.mark.parametrize("group, field", [(C8, F2), (S3, F3)], ids=["C8-F2", "S3-F3"])
@pytest.mark.parametrize(
    "raise_rank, reason",
    [(True, "fast path disagrees with matrix path"), (False, "rank 0 below greedy lengths")],
    ids=["audit", "bound"],
)
def test_uncertainty_sweep_reports_a_wrong_rank_at_its_whole_orbit(
    group, field, raise_rank, reason, monkeypatch
):
    # the sweep checks m* at the rank of the orbit minimum m a quarter of the
    # way along, made one too high (which passes the bounds and is caught by
    # the audit at each f) or 0 (which fails the bounds at m*, reported for
    # the whole orbit of f -> c*g*f through m*)
    monkeypatch.setattr(theorems, "_CROSSCHECK_STRIDE", 1)
    n, p = group.order, field.p
    orbits = theorems.sweep_orbits(group, field)
    k = len(orbits.minima) // 4
    ranks = orbits.ranks.copy()
    ranks[k] = ranks[k] + 1 if raise_rank else 0
    rep = theorems.verify_uncertainty(group, field, orbits=orbits._replace(ranks=ranks))
    m = int(orbits.minima[k])
    f = AlgElem(group, field, [(m // p**i) % p for i in range(n)])
    orbit = oracles.left_orbit(oracles.star(f))
    assert len(orbit) > 1
    if group is S3:  # the orbit of m* need not hold m
        assert (m, min(orbit)) == (46, 100)
    assert [rec["f"] for rec in rep["failures"]] == orbit
    assert all(rec["reason"].startswith(reason) for rec in rep["failures"])
    assert rep["checked"] == p**n - 1


def test_uncertainty_audit_catches_right_orbit_minima_on_s3(monkeypatch):
    # greedy lengths are constant on the orbits of f -> c*g*f only: checking
    # each orbit minimum m of f -> c*f*g itself instead of m*
    # (translate_weights' rows permuted twice by the inverse) leaves audited
    # f whose natural greedy walk differs
    monkeypatch.setattr(theorems, "_CROSSCHECK_STRIDE", 1)
    weights = theorems.translate_weights
    monkeypatch.setattr(theorems, "translate_weights", lambda g: weights(g)[:, g.inverse])
    for field, failures in ((F3, 96), (F2, 12)):
        rep = theorems.verify_uncertainty(S3, field)
        assert len(rep["failures"]) == failures
        assert all(rec["reason"].startswith("mask greedy length") for rec in rep["failures"])


@pytest.mark.parametrize(
    "spec, p",
    [("symmetric:3", 2), ("symmetric:3", 3), ("dihedral:4", 2), ("quaternion8", 2),
     ("dihedral:5", 2), ("cyclic:6", 3)],
)
def test_the_stars_of_the_orbit_minima_meet_each_left_orbit_once(spec, p):
    # m -> m* is the exhaustive uncertainty sweep's choice of one f per orbit
    # of f -> c*g*f, each checked at the rank the orbit pass found for m
    group, field = from_spec(spec), PrimeField(p)
    n = group.order
    orbits = theorems.sweep_orbits(group, field)
    covered = []
    for m, rank in zip(orbits.minima.tolist(), orbits.ranks.tolist()):
        star = oracles.star(AlgElem(group, field, [(m // p**i) % p for i in range(n)]))
        covered += oracles.left_orbit(star)
        assert linalg.rank(star.multiplication_matrix(), field) == rank, (spec, p, m)
    assert sorted(covered) == list(range(1, p**n))


@pytest.mark.parametrize(
    "spec, p",
    [("dihedral:4", 2), ("quaternion8", 2), ("symmetric:3", 2), ("symmetric:3", 3),
     ("dihedral:5", 2), ("dihedral:6", 2), ("cyclic:4xcyclic:2", 2), ("cyclic:7", 3)],
)
def test_exhaustive_uncertainty_audit_passes_at_every_f(spec, p, monkeypatch):
    # each f is compared with the fast values at m*, m the orbit minimum of f*
    monkeypatch.setattr(theorems, "_CROSSCHECK_STRIDE", 1)
    group = from_spec(spec)
    rep = theorems.verify_uncertainty(group, PrimeField(p))
    assert rep["failures"] == [] and rep["checked"] == p**group.order - 1


@pytest.mark.parametrize("spec, p", [("dihedral:5", 2), ("symmetric:3", 3)])
def test_exhaustive_uncertainty_alone_builds_no_ideal_list(spec, p, monkeypatch):
    # without `orbits` each chunk of minima is ranked by _reduce, and the
    # report equals the one ranked by the orbit pass
    group, field = from_spec(spec), PrimeField(p)
    given = theorems.verify_uncertainty(group, field, orbits=theorems.sweep_orbits(group, field))

    def forbidden(*args):
        raise AssertionError("the exhaustive uncertainty sweep builds no ideal list")

    monkeypatch.setattr(linalg, "unpack_f2", forbidden)
    monkeypatch.setattr(theorems, "_eliminate", forbidden)
    assert theorems.verify_uncertainty(group, field) == given


@pytest.mark.parametrize("spec", ["cyclic:20", "dihedral:10"])
def test_exhaustive_uncertainty_holds_no_array_over_all_indices(spec):
    # 17.0 MB while the sweep kept a rank and a minimum for each of the 2^20 indices
    group = from_spec(spec)
    tracemalloc.start()
    try:
        rep = theorems.verify_uncertainty(group, F2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["checked"] == 2**20 - 1 and rep["failures"] == []
    assert peak < 8 * 2**20


@pytest.mark.parametrize(
    "spec, p",
    [("cyclic:8", 2), ("dihedral:4", 2), ("symmetric:3", 3), ("cyclic:6", 3), ("cyclic:5", 5)],
)
def test_table_masks_match_the_translate_supports(spec, p):
    # the sweeps' masks: support indicators @ translate_weights, at every index
    group, field = from_spec(spec), PrimeField(p)
    n = group.order
    digits = theorems._generator_digits(np.arange(p**n, dtype=np.int64), n, p)
    masks = (digits != 0).astype(np.int64) @ translate_weights(group)
    assert masks.shape == (1, p**n, n)
    for row, words in zip(digits, masks[0].tolist()):
        f = AlgElem(group, field, row)
        assert words == [w for (w,) in oracles.translate_support_words(f)]
        assert int(np.bitwise_count(words[0])) == f.weight()


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_uncertainty_check_f2_rank_matches_the_oracle(n):
    # the audit's rank takes each row as one Python int, read from the
    # bytes np.packbits makes of it; these orders end the rows on either
    # side of a byte and of 64 bits
    group = make_cyclic(n)
    rng = np.random.default_rng(n)
    elems = [
        AlgElem(group, F2, rng.integers(0, 2, size=n)),
        AlgElem.all_ones(group, F2),
        AlgElem(group, F2, [1, 1] + [0] * (n - 2)),
    ]
    for _ in range(6):  # (1 + x)^(2^k) has rank n - 2^k when 2^k divides n
        elems.append(elems[-1].convolve(elems[-1]))
    for f in elems:
        if f.is_zero():
            continue
        want = oracles.rank_mod_p(f.multiplication_matrix().tolist(), 2)
        assert theorems.uncertainty_check(f).rank == want


@pytest.mark.parametrize(
    "spec, p", [("cyclic:63", 2), ("cyclic:64", 2), ("cyclic:65", 2), ("cyclic:128", 2),
                ("symmetric:5", 3)],
)
def test_uncertainty_checks_match_the_oracles_row_for_row(spec, p):
    # one batch: the rank of each row's matrix by Gaussian elimination over
    # lists, its weight and its greedy walk one support at a time, along the
    # natural and a shuffled order
    group, field = from_spec(spec), PrimeField(p)
    n = group.order
    rng = np.random.default_rng(n)
    coeffs = np.array([
        rng.integers(0, p, size=n),
        np.ones(n, dtype=np.int64),  # rank 1
        np.arange(n) == 0,  # the identity, rank n
        np.arange(n) < 2,  # 1 + g_1: rank n - 1 on C_n
        rng.integers(1, p, size=n) * (np.arange(n) % 9 == 4),  # sparse
    ]).astype(np.int64)
    ranks = [
        oracles.rank_mod_p(AlgElem(group, field, c).multiplication_matrix().tolist(), p)
        for c in coeffs
    ]
    for order in (None, [int(g) for g in rng.permutation(n)]):
        got = theorems.uncertainty_checks(group, field, coeffs, order)
        assert len(got) == len(coeffs)
        for c, rank, res in zip(coeffs, ranks, got):
            support = np.flatnonzero(c).tolist()
            t, _ = oracles.greedy_support_rank(group, support, order)
            assert res == (len(support), rank, t, n)


@pytest.mark.parametrize("batch", [256, 2])
@pytest.mark.parametrize("group, field", [(C8, F2), (S3, F3)], ids=["C8-F2", "S3-F3"])
def test_uncertainty_audit_reports_a_wrong_fast_rank_at_its_f_alone(
    group, field, batch, monkeypatch
):
    # every 7th f is audited, all minima lie in one chunk, so the audited f
    # go through one uncertainty_checks call (or calls of 2); the rank of one
    # orbit minimum m is one too high, and the orbit of m* holds a single
    # audited f, which is the only failure
    monkeypatch.setattr(theorems, "_CROSSCHECK_STRIDE", 7)
    monkeypatch.setattr(theorems, "_AUDIT_BATCH", batch)
    n, p = group.order, field.p
    orbits = theorems.sweep_orbits(group, field)
    assert len(orbits.minima) <= theorems._SWEEP_CHUNK and (p**n - 1) // 7 > 30
    for k, m in enumerate(orbits.minima.tolist()):
        elem = AlgElem(group, field, [(m // p**i) % p for i in range(n)])
        orbit = oracles.left_orbit(oracles.star(elem))
        audited = [f for f in orbit if f % 7 == 0]
        if len(orbit) > 1 and len(audited) == 1:
            break
    (f,) = audited
    ranks = orbits.ranks.copy()
    ranks[k] += 1
    rep = theorems.verify_uncertainty(group, field, orbits=orbits._replace(ranks=ranks))
    w = AlgElem(group, field, [(f // p**i) % p for i in range(n)]).weight()
    rank = int(orbits.ranks[k])
    reason = f"fast path disagrees with matrix path: {(w, rank + 1)} vs {(w, rank)}"
    assert rep["failures"] == [{"f": f, "reason": reason}]


@pytest.mark.parametrize("spec, p", [("cyclic:20", 2), ("dihedral:6", 3)])
def test_uncertainty_checks_share_no_kernel_with_the_sweep(spec, p, monkeypatch):
    # the audit ranks its own matrices: none of the sweep's packed words,
    # stacked eliminations or translate weights
    group, field = from_spec(spec), PrimeField(p)
    n = group.order
    coeffs = theorems._generator_digits(np.arange(997, 40 * 997, 997, dtype=np.int64), n, p)
    want = [tuple(r) for r in theorems.uncertainty_checks(group, field, coeffs)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the audit reached a sweep kernel")

    for module, name in [(linalg, "f2_rref_stack"), (linalg, "pack_f2"), (linalg, "rref_stack"),
                         (theorems, "translate_weights"), (theorems, "_reduce")]:
        monkeypatch.setattr(module, name, forbidden)
    monkeypatch.setattr(galg, "translate_weights", forbidden)
    assert [tuple(r) for r in theorems.uncertainty_checks(group, field, coeffs)] == want


def test_uncertainty_checks_refuse_a_zero_row_and_a_non_permutation():
    rows = [[1] + [0] * 7, [0] * 8]
    with pytest.raises(ValueError, match="zero element"):
        theorems.uncertainty_checks(C8, F2, rows)
    for order in ([0, 1], [0] * 8, list(range(1, 9))):
        with pytest.raises(ValueError, match="permutation"):
            theorems.uncertainty_checks(C8, F2, rows[:1], order)


def test_verify_all_enumerates_once(monkeypatch):
    calls = {"enumerate": 0, "orbits": 0}
    enumerate_ideals = theorems.enumerate_cyclic_ideals
    sweep_orbits = theorems.sweep_orbits

    def counted_enumerate(*args, **kwargs):
        calls["enumerate"] += 1
        return enumerate_ideals(*args, **kwargs)

    def counted_orbits(*args, **kwargs):
        calls["orbits"] += 1
        return sweep_orbits(*args, **kwargs)

    monkeypatch.setattr(theorems, "enumerate_cyclic_ideals", counted_enumerate)
    monkeypatch.setattr(theorems, "sweep_orbits", counted_orbits)
    rep = theorems.verify_all(C8, F2)
    assert rep["failures"] == []
    assert calls == {"enumerate": 1, "orbits": 1}


def test_verify_all_scans_each_ideal_once(monkeypatch):
    scanned = {}  # id -> (code, scans); holding the code keeps its id unique
    scan = gc.GCode._min_scan

    def counted(self):
        code, count = scanned.get(id(self), (self, 0))
        scanned[id(self)] = (code, count + 1)
        return scan(self)

    monkeypatch.setattr(gc.GCode, "_min_scan", counted)
    rep = theorems.verify_all(C8, F2)
    assert rep["failures"] == []
    assert scanned and max(count for _, count in scanned.values()) == 1


def test_verify_equality_scans_only_the_listed_ideals(monkeypatch):
    # each induced witness code of a 2-group over F_2 equals the ideal it
    # certifies, so no code outside the list is scanned
    scanned = []
    scan = gc.GCode._min_scan

    def counted(self):
        scanned.append(self)
        return scan(self)

    monkeypatch.setattr(gc.GCode, "_min_scan", counted)
    c16 = make_cyclic(16)
    ideals = theorems.enumerate_cyclic_ideals(c16, F2)
    rep = theorems.verify_equality(c16, F2, ideals=ideals)
    assert rep["failures"] == [] and rep["checked"] == len(ideals) == 16
    assert sorted(map(id, scanned)) == sorted(id(code) for _, code in ideals)


@pytest.mark.parametrize("spec, p", [("cyclic:16", 2), ("cyclic:9", 3)])
def test_verify_schur_squares_each_ideal_once(spec, p, monkeypatch):
    # both orders lie above the pairwise cap, so every product is a chain
    # step, and a chain squares its code at its first step only
    squared = []
    products = schur._products

    def counted(power, base, p, square):
        if square:
            squared.append(base.tobytes())
        return products(power, base, p, square)

    def outside(a, b):
        raise AssertionError("a product outside the power chains")

    monkeypatch.setattr(schur, "_products", counted)
    monkeypatch.setattr(schur, "schur_product", outside)
    group, field = from_spec(spec), PrimeField(p)
    ideals = theorems.enumerate_cyclic_ideals(group, field)
    assert group.order > theorems._PAIRWISE_PRODUCT_CAP
    rep = theorems.verify_schur(group, field, ideals=ideals)
    assert rep["failures"] == [] and rep["checked"] == len(ideals)
    rows = [code.basis.matrix for _, code in ideals]
    assert sorted(squared) == sorted((linalg.pack_f2(m) if p == 2 else m).tobytes() for m in rows)


def test_verify_equality_builds_each_witness_code_once(monkeypatch):
    built = []
    induced = gc.trivial_induced

    def counted(group, field, sub):
        built.append(sub.members)
        return induced(group, field, sub)

    monkeypatch.setattr(gc, "trivial_induced", counted)
    c16 = make_cyclic(16)
    rep = theorems.verify_equality(c16, F2)
    # every certified ideal is read from its own basis
    assert rep["failures"] == [] and rep["checked"] > 0 and built == []

    # C6 is not a 3-group: two witness codes differ from their ideal, and
    # only they build it, to check the bound on the witness code itself
    c6 = make_cyclic(6)
    ideals = theorems.enumerate_cyclic_ideals(c6, F3)
    witnesses = {fidx: theorems.equality_analysis(code) for fidx, code in ideals}
    certified = [fidx for fidx, w in witnesses.items() if w is not None]
    differ = [
        fidx
        for fidx, code in ideals
        if fidx in certified and induced(c6, F3, witnesses[fidx].subgroup) != code
    ]
    assert differ == [29, 455] and len(certified) > len(differ)
    assert built == [witnesses[fidx].subgroup.members for fidx in differ]

    def zero_code(group, field, sub):
        return oracles.zero_code(group, field)

    monkeypatch.setattr(gc, "trivial_induced", zero_code)
    rep = theorems.verify_equality(c6, F3, ideals=ideals)
    assert rep["failures"] == [
        {"f": fidx, "reason": "induced code misses the bound"} for fidx in differ
    ]


def test_verify_equality_rebuilds_no_code_from_a_generator(monkeypatch):
    # generation is read off ranks of multiplication matrices: the only codes
    # built are the induced spans of witnesses off a p-group that differ
    # from their code, for the bound on the span
    calls = {}

    def count(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for spec, p, spans in [("cyclic:16", 2, 0), ("dihedral:6", 3, 22), ("cyclic:8", 5, 7)]:
        group, field = from_spec(spec), PrimeField(p)
        ideals = theorems.enumerate_cyclic_ideals(group, field)
        differ = 0
        for _, code in ideals:
            witness = theorems.equality_analysis(code)
            if witness is not None:
                differ += gc.trivial_induced(group, field, witness.subgroup) != code
        assert differ == spans
        calls.update(generators=0, codes=0)
        monkeypatch.setattr(
            gc, "ideal_from_generators", count("generators", gc.ideal_from_generators)
        )
        monkeypatch.setattr(gc.GCode, "__init__", count("codes", gc.GCode.__init__))
        rep = theorems.verify_equality(group, field, ideals=ideals)
        monkeypatch.undo()
        assert rep["failures"] == [] and rep["checked"] == len(ideals)
        assert calls == {"generators": 0, "codes": spans}


@pytest.mark.parametrize(
    "spec, p", [("dihedral:10", 2), ("dihedral:6", 3), ("cyclic:12", 3), ("cyclic:8", 5)]
)
def test_generation_by_rank_matches_the_rebuilt_ideal(spec, p):
    # c lies in the code, so cF[G] is the code exactly when c's
    # multiplication matrix has rank dim C
    group, field = from_spec(spec), PrimeField(p)
    verdicts = set()
    for _, code in theorems.enumerate_cyclic_ideals(group, field):
        c = code.min_weight_codeword()
        by_rank = linalg.rank(c.multiplication_matrix(), field) == code.dim
        assert by_rank == (gc.ideal_from_generators(group, field, [c]) == code)
        verdicts.add(by_rank)
    assert verdicts == {True, False}


@pytest.mark.parametrize("sample", [0, -3])
def test_sample_indices_need_a_generator(sample):
    with pytest.raises(ValueError, match=f"a sample needs at least one generator, not {sample}"):
        theorems._sample_indices(8, 2, sample, seed=0)


def test_sample_indices_past_int64():
    # 3^40 - 1 does not fit in int64: digit vectors are drawn instead
    picks = theorems._sample_indices(40, 3, 50, seed=1)
    assert picks.dtype == object and list(picks) == sorted(picks)
    assert all(1 <= i < 3**40 for i in picks) and max(picks) > 2**63
    digits = theorems._generator_digits(picks, 40, 3)
    values = [sum(d * 3**j for j, d in enumerate(row)) for row in digits.tolist()]
    assert values == list(picks)
    # where p^n fits, the draws are the int64 ones
    small = theorems._sample_indices(30, 2, 50, seed=1)
    expected = np.random.default_rng(1).integers(1, 2**30, size=50, dtype=np.int64)
    assert small.tolist() == sorted(expected.tolist())


# `verify all --json`: the first four recorded before the orbit-pruned sweep
# engine existed, the last three before the sections shared one per-ideal
# driver
VERIFY_ALL_GOLDEN = {
    ("dihedral:4", 2): (
        '{"checked":502,"failures":[],"group":"D4","p":2,"sections":{'
        '"bound":{"checked":19,"failures":[],"group":"D4","p":2},'
        '"equality":{"checked":19,"failures":[],"group":"D4","p":2},'
        '"schur":{"checked":209,"failures":[],"group":"D4","p":2},'
        '"uncertainty":{"checked":255,"failures":[],"group":"D4","p":2}}}\n'
    ),
    ("quaternion8", 2): (
        '{"checked":354,"failures":[],"group":"Q8","p":2,"sections":{'
        '"bound":{"checked":11,"failures":[],"group":"Q8","p":2},'
        '"equality":{"checked":11,"failures":[],"group":"Q8","p":2},'
        '"schur":{"checked":77,"failures":[],"group":"Q8","p":2},'
        '"uncertainty":{"checked":255,"failures":[],"group":"Q8","p":2}}}\n'
    ),
    ("symmetric:3", 3): (
        '{"checked":1073,"failures":[],"group":"S3","p":3,"sections":{'
        '"bound":{"checked":23,"failures":[],"group":"S3","p":3},'
        '"equality":{"checked":23,"failures":[],"group":"S3","p":3},'
        '"schur":{"checked":299,"failures":[],"group":"S3","p":3},'
        '"uncertainty":{"checked":728,"failures":[],"group":"S3","p":3}}}\n'
    ),
    ("cyclic:5", 5): (
        '{"checked":3154,"failures":[],"group":"C5","p":5,"sections":{'
        '"bound":{"checked":5,"failures":[],"group":"C5","p":5},'
        '"equality":{"checked":5,"failures":[],"group":"C5","p":5},'
        '"schur":{"checked":20,"failures":[],"group":"C5","p":5},'
        '"uncertainty":{"checked":3124,"failures":[],"group":"C5","p":5}}}\n'
    ),
    ("cyclic:6", 3): (
        '{"checked":893,"failures":[],"group":"C6","p":3,"sections":{'
        '"bound":{"checked":15,"failures":[],"group":"C6","p":3},'
        '"equality":{"checked":15,"failures":[],"group":"C6","p":3},'
        '"schur":{"checked":135,"failures":[],"group":"C6","p":3},'
        '"uncertainty":{"checked":728,"failures":[],"group":"C6","p":3}}}\n'
    ),
    ("cyclic:9", 3): (
        '{"checked":19709,"failures":[],"group":"C9","p":3,"sections":{'
        '"bound":{"checked":9,"failures":[],"group":"C9","p":3},'
        '"equality":{"checked":9,"failures":[],"group":"C9","p":3},'
        '"schur":{"checked":9,"failures":[],"group":"C9","p":3},'
        '"uncertainty":{"checked":19682,"failures":[],"group":"C9","p":3}}}\n'
    ),
    ("cyclic:12", 2): (
        '{"checked":4167,"failures":[],"group":"C12","p":2,"sections":{'
        '"bound":{"checked":24,"failures":[],"group":"C12","p":2},'
        '"equality":{"checked":24,"failures":[],"group":"C12","p":2},'
        '"schur":{"checked":24,"failures":[],"group":"C12","p":2},'
        '"uncertainty":{"checked":4095,"failures":[],"group":"C12","p":2}}}\n'
    ),
}


@pytest.mark.parametrize("spec, p", sorted(VERIFY_ALL_GOLDEN))
def test_verify_all_json_matches_golden(spec, p, capsys):
    from gcodelab import cli

    for threads in ("1", "2"):
        argv = ["verify", "all", "--group", spec, "--p", str(p), "--json"]
        assert cli.run(argv + ["--threads", threads]) == 0
        assert capsys.readouterr().out == VERIFY_ALL_GOLDEN[(spec, p)]
