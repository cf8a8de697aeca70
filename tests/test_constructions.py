import json
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gcodelab import cli, constructions, gcode as gc, groups, linalg, schur
from gcodelab.errors import VerificationError
from gcodelab.ffield import PrimeField
from gcodelab.galg import AlgElem

F2 = PrimeField(2)


def test_rm_dimension_and_distance_exhaustive():
    for m in range(1, 5):
        for r in range(m + 1):
            code = constructions.reed_muller(r, m)
            assert code.length == 2**m
            assert code.dim == sum(comb(m, i) for i in range(r + 1))
            assert code.min_distance() == 2 ** (m - r)
            assert gc.is_ideal(code.group, code.basis)


def test_rm_edge_orders():
    full = constructions.reed_muller(3, 3)
    assert full.dim == 8 and full.min_distance() == 1
    rep = constructions.reed_muller(0, 4)
    assert rep.dim == 1 and rep.min_distance() == 16
    assert rep.basis.matrix.tolist() == [[1] * 16]


def test_rm_distance_matches_oracle_small():
    for m in (2, 3):
        for r in range(m + 1):
            code = constructions.reed_muller(r, m)
            assert code.min_distance() == oracles.min_distance_scan(
                code.basis.matrix.tolist(), 2
            )


def test_rm_nesting():
    for m in (3, 4):
        for r in range(m):
            lo = constructions.reed_muller(r, m)
            hi = constructions.reed_muller(r + 1, m)
            assert lo.issubset(hi)


def test_rm_self_orthogonality_threshold():
    for m in (2, 3, 4):
        for r in range(m + 1):
            code = constructions.reed_muller(r, m)
            assert code.is_self_orthogonal() == (2 * r <= m - 1)


def test_rm_product_bound_equality_at_extremes():
    # equality holds for the full algebra (r = m) and for the repetition
    # code (r = 0, the all-ones span with d*k = 2^m), nowhere in between
    for m in (3, 4):
        for r in range(m + 1):
            rep = constructions.reed_muller(r, m).params()
            assert rep.product >= 2**m
            assert rep.equality == (r in (0, m))


def test_rm_parameter_examples():
    rep = constructions.reed_muller(1, 3).params()
    assert (rep.dimension, rep.distance, rep.product) == (4, 4, 16)
    assert constructions.reed_muller(1, 4).min_distance() == 8
    assert constructions.reed_muller(2, 4).dim == 11


def test_rm_schur_square_check():
    v = constructions.rm_schur_square_check(1, 3)
    assert v["equals_doubled_order"] and v["square_dim"] == 7
    even = gc.augmentation_ideal(constructions.reed_muller(1, 3).group, F2)
    assert schur.schur_product(
        constructions.reed_muller(1, 3), constructions.reed_muller(1, 3)
    ) == even  # doubled order fills the even-weight ideal at the threshold
    assert v["strict_in_even_weight"] is None

    v = constructions.rm_schur_square_check(1, 4)
    assert v["square_dim"] == 11 and v["strict_in_even_weight"] is True

    v = constructions.rm_schur_square_check(0, 3)
    assert v["square_dim"] == 1 and v["strict_in_even_weight"] is True


def test_rm_bounds_rejected():
    with pytest.raises(ValueError):
        constructions.reed_muller(3, 2)
    with pytest.raises(ValueError):
        constructions.reed_muller(1, 7)
    with pytest.raises(ValueError):
        constructions.rm_schur_square_check(3, 4)


def test_golay_zero_budget():
    assert constructions.golay_search(0, seed=1) is None
    with pytest.raises(ValueError):
        constructions.golay_search(-1, seed=1)


def test_golay_seed_must_be_a_philox_key():
    for seed in (-1, 1 << 128):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            constructions.golay_search(10, seed)
    for seed in (0, (1 << 128) - 1):
        res = constructions.golay_search(10, seed)
        assert res is None or res.trial < 10


def test_golay_search_hits_and_verifies():
    result = constructions.golay_search(50_000, seed=2024)
    assert result is not None
    rep = result.code.params()
    assert (rep.length, rep.dimension, rep.distance) == (24, 12, 8)
    assert rep.product == 96
    assert result.code.dual() == result.code
    regenerated = gc.ideal_from_generators(
        result.code.group, result.code.field, [result.generator]
    )
    assert regenerated == result.code


@pytest.mark.parametrize("seed, trial", [(0, 1276), (5, 2), (7, 1443), (15, 1346), (33, 820)])
def test_golay_chunk_growth_keeps_the_trial_and_mask(monkeypatch, seed, trial):
    # chunks of 512, 1024, ... must find what one 2^15 draw finds (the
    # trials are those of one 2^15 draw); a first chunk of 3 puts chunk
    # boundaries before every hit of these seeds
    found = []
    for first in (constructions._FIRST_CHUNK, 3, constructions._SEARCH_CHUNK):
        monkeypatch.setattr(constructions, "_FIRST_CHUNK", first)
        res = constructions.golay_search(1_000_000, seed)
        found.append((res.trial, res.generator.to_text()))
    assert found[0] == found[1] == found[2]
    assert found[0][0] == trial


def test_search_golay_scans_the_winner_once_and_takes_no_kernel(monkeypatch, capsys):
    # the winner is built once; its scan serves the CLI's params, and
    # self-duality is 2·dim = |G| plus self-orthogonality, with no dual code
    scanned, kernels = [], []
    scan, kernel = gc.GCode._min_scan, linalg.kernel

    def counted_scan(self):
        scanned.append(self)
        return scan(self)

    def counted_kernel(*args, **kwargs):
        kernels.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(gc.GCode, "_min_scan", counted_scan)
    monkeypatch.setattr(linalg, "kernel", counted_kernel)
    argv = ["search", "golay", "--budget", "1000000", "--seed", "5", "--json"]
    assert cli.run(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["trial"], out["d"], out["self_dual"]) == (2, 8, True)
    s4 = groups.make_symmetric(4)
    winner = gc.ideal_from_generators(s4, F2, [AlgElem.from_text(s4, F2, out["generator"])])
    assert scanned == [winner]
    assert kernels == []


def test_golay_winner_must_equal_its_rebuilt_ideal(monkeypatch):
    monkeypatch.setattr(
        gc, "ideal_from_generators",
        lambda group, field, gens: gc.augmentation_ideal(group, field),
    )
    with pytest.raises(VerificationError, match="winning trial failed re-verification"):
        constructions.golay_search(1_000_000, seed=5)


def test_golay_builds_only_the_winner_as_a_code(monkeypatch):
    # losing candidates are scanned from their rows; is_ideal runs once, for
    # the winner built from its generator, however many candidates lost
    calls = []
    is_ideal = gc.is_ideal

    def counted(*args):
        calls.append(args)
        return is_ideal(*args)

    monkeypatch.setattr(gc, "is_ideal", counted)
    counts = []
    for seed in (5, 0):  # hits at trials 2 and 1276
        calls.clear()
        assert constructions.golay_search(1_000_000, seed) is not None
        counts.append(len(calls))
    assert counts == [1, 1]


def test_golay_winner_must_pass_its_own_scan(monkeypatch):
    monkeypatch.setattr(gc.GCode, "_min_scan", lambda self: (6, 1))
    with pytest.raises(VerificationError, match="winning trial failed its codeword scan"):
        constructions.golay_search(1_000_000, seed=5)


def test_golay_winner_must_be_self_orthogonal(monkeypatch):
    monkeypatch.setattr(gc.GCode, "is_self_orthogonal", lambda self: False)
    with pytest.raises(VerificationError, match="winning trial is not self-dual"):
        constructions.golay_search(1_000_000, seed=5)


WINNER_2024_MASK = 0xCF3E9E  # `search golay --seed 2024` hits at trial 65
_MASK = st.integers(0, (1 << 24) - 1)
# random masks rarely give a self-orthogonal ideal (2.4 % do); sums of a
# few group elements often do
_SPARSE_MASK = st.sets(st.integers(0, 23), max_size=6).map(lambda s: sum(1 << m for m in s))
_TRIAL_MASKS = st.lists(st.one_of(_MASK, _SPARSE_MASK), max_size=12).map(
    lambda drawn: np.array([0, (1 << 24) - 1, WINNER_2024_MASK, *drawn], dtype=np.int64)
)


@settings(max_examples=60, deadline=None)
@given(_TRIAL_MASKS)
def test_golay_parity_filter_matches_translate_gram(masks):
    group = constructions._s4()[0]
    _, odd = constructions._translates(masks)
    want = [oracles.self_orthogonal_translates(group, m) for m in masks.tolist()]
    assert (~odd).tolist() == want


@settings(max_examples=60, deadline=None)
@given(_TRIAL_MASKS)
def test_golay_table_built_translates_match_algebra_products(masks):
    group = constructions._s4()[0]
    col_masks, _ = constructions._translates(masks)
    want = [oracles.translate_masks(group, m) for m in masks.tolist()]
    assert col_masks.tolist() == want


def _found(result):
    if result is None:
        return None
    return result.trial, int(result.generator.coeffs @ (1 << np.arange(24)))


@pytest.mark.parametrize("budget, seeds", [(1_000_000, range(100)), (300, range(50))])
def test_golay_filter_keeps_the_unfiltered_winner(budget, seeds):
    got = [_found(constructions.golay_search(budget, seed)) for seed in seeds]
    want = [oracles.golay_scan_unfiltered(budget, seed) for seed in seeds]
    assert got == want
    assert want.count(None) == (21 if budget == 300 else 0)


def _winners(seeds):
    return [constructions.golay_search(1_000_000, seed) for seed in seeds]


def test_golay_weight_screen_premise():
    # every word of a winner's code that generates the whole code (rank 12)
    # has weight 8, 12 or 16, and the all-ones word, of weight 24, generates
    # only its own line; winners of all three weights occur
    group = constructions._s4()[0]
    shifts = np.arange(24)
    weights = np.int64(1) << group.table.astype(np.int64)
    messages = (np.arange(1 << 12)[:, None] >> np.arange(12)) & 1
    winner_weights = []
    for res in _winners(range(20)):
        winner_weights.append(int(res.generator.coeffs.sum()))
        words = messages @ res.code.basis.matrix % 2
        enumerator = np.bincount(words.sum(axis=1), minlength=25)
        assert {w: int(c) for w, c in enumerate(enumerator) if c} == {
            0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
        translates = ((words @ (1 << shifts))[:, None] >> shifts & 1) @ weights
        _, ranks = linalg.f2_rref_stack(translates.astype(np.uint64)[:, :, None], 24)
        assert set(words[ranks == 12].sum(axis=1).tolist()) <= {8, 12, 16}
    assert sorted(winner_weights) == [8] * 3 + [12] * 12 + [16] * 5
    ones = gc.ideal_from_generators(group, F2, [AlgElem.all_ones(group, F2)])
    assert ones.dim == 1


def test_golay_budget_boundary_through_the_screens():
    # a budget that ends just before the winning trial finds nothing, and one
    # more trial finds it: the screened trials keep their own indices, with
    # chunks cut anywhere from the first chunk of 512 onwards
    for seed, res in enumerate(_winners(range(20))):
        assert constructions.golay_search(res.trial, seed) is None
        again = constructions.golay_search(res.trial + 1, seed)
        assert _found(again) == _found(res)


def test_golay_ranks_only_self_orthogonal_trials(monkeypatch):
    # seed 0 hits at trial 1276; unfiltered, nearly every trial is ranked
    calls = []
    f2_rank = linalg.f2_rank

    def counted(*args, **kwargs):
        calls.append(args)
        return f2_rank(*args, **kwargs)

    monkeypatch.setattr(linalg, "f2_rank", counted)
    assert constructions.golay_search(1_000_000, seed=0).trial == 1276
    assert 0 < len(calls) < 128


def test_philox_draws_do_not_depend_on_chunking():
    sizes = [1, 3, 512, 1024, 2048, 31_200]
    single = np.random.Generator(np.random.Philox(key=7)).integers(
        0, 1 << 24, size=sum(sizes), dtype=np.int64
    )
    rng = np.random.Generator(np.random.Philox(key=7))
    parts = [rng.integers(0, 1 << 24, size=s, dtype=np.int64) for s in sizes]
    assert np.array_equal(np.concatenate(parts), single)


def test_golay_search_reproducible_across_threads(capsys):
    # the search runs in one thread; `--threads` is accepted and changes nothing
    a = constructions.golay_search(20_000, seed=77)
    b = constructions.golay_search(20_000, seed=77)
    if a is None:
        assert b is None
    else:
        assert b is not None and a.trial == b.trial and a.code == b.code
    outs = set()
    for threads in ("1", "2", "4"):
        argv = ["search", "golay", "--budget", "20000", "--seed", "77", "--json"]
        assert cli.run(argv + ["--threads", threads]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1
