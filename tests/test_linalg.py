import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gcodelab import linalg
from gcodelab.ffield import PrimeField

F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def test_rref_examples():
    b = linalg.rref([[1, 1], [1, 1]], F2)
    assert b.matrix.tolist() == [[1, 1]] and b.pivots == (0,)
    b = linalg.rref([[1, 2], [2, 1]], F3)
    assert b.matrix.tolist() == [[1, 2]] and b.pivots == (0,)
    eye = np.eye(3, dtype=np.int64)
    b = linalg.rref(eye, F2)
    assert np.array_equal(b.matrix, eye) and b.pivots == (0, 1, 2)


def test_rref_idempotent_and_deterministic():
    rng = np.random.default_rng(7)
    for field in (F2, F3, F5):
        for _ in range(25):
            m = rng.integers(0, field.p, size=(5, 7))
            b1 = linalg.rref(m, field)
            b2 = linalg.rref(b1.matrix, field)
            assert b1 == b2


def test_rank_examples():
    assert linalg.rank(np.zeros((3, 4), dtype=np.int64), F3) == 0
    assert linalg.rank([[1, 2], [2, 1]], F3) == 1
    circulant = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]
    assert linalg.rank(circulant, F2) == 3
    assert oracles.rank_mod_p(circulant, 2) == 3


def test_kernel_examples():
    assert linalg.kernel(np.eye(4, dtype=np.int64), F2).dim == 0
    parity = linalg.kernel([[1, 1, 1, 1]], F2)
    assert parity.dim == 3
    assert all(sum(row) % 2 == 0 for row in parity.matrix.tolist())
    assert linalg.kernel([[1, 2]], F3).matrix.tolist() == [[1, 1]]


def test_subspace_intersect_examples():
    v = linalg.rref([[1, 0, 1], [0, 1, 1]], F2)
    assert linalg.subspace_intersect(v, v) == v
    e1 = linalg.rref([[1, 0]], F3)
    e2 = linalg.rref([[0, 1]], F3)
    assert linalg.subspace_intersect(e1, e2).dim == 0
    even = linalg.kernel([[1, 1, 1, 1]], F2)
    span = linalg.rref([[1, 1, 0, 0], [0, 1, 1, 0]], F2)
    assert linalg.subspace_intersect(even, span) == span


def test_contains_examples():
    even = linalg.kernel([[1, 1, 1, 1]], F2)
    assert even.contains([0, 0, 0, 0])
    assert not even.contains([1, 0, 0, 0])
    span = linalg.rref([[1, 2]], F3)
    assert span.contains([2, 1])


def test_equal_spaces_canonical():
    rep1 = linalg.rref([[1, 1, 1]], F2)
    rep2 = linalg.rref([[1, 1, 1], [0, 0, 0]], F2)
    assert rep1 == rep2
    sub = linalg.rref([[1, 0, 0]], F2)
    full = linalg.rref(np.eye(3, dtype=np.int64), F2)
    assert sub != full


@pytest.mark.parametrize(
    "matrix, pivots, field",
    [
        ([[1, 3]], (0,), F3),  # entry not a canonical residue
        ([[1, -1]], (0,), F3),  # negative entry
        ([[0, 1], [1, 0]], (1, 0), F2),  # pivots decrease
        ([[1, 0], [0, 1]], (0, 0), F2),  # pivots repeat
        ([[1, 0]], (2,), F2),  # pivot outside the matrix
        ([[0, 1]], (-1,), F2),  # negative pivot
        ([[2, 1]], (0,), F3),  # pivot entry not 1
        ([[1, 1], [1, 1]], (0, 1), F2),  # pivot column 1 not elsewhere 0
        ([[1, 0, 0], [1, 0, 1]], (0, 2), F2),  # pivot column 0 not elsewhere 0
        ([[0, 1, 0], [1, 0, 1]], (1, 2), F2),  # nonzero left of a pivot
        ([[1, 0, 1], [0, 1, 1]], (0,), F2),  # one pivot per row
    ],
)
def test_rowbasis_rejects_each_invariant_violation(matrix, pivots, field):
    with pytest.raises(ValueError):
        linalg.RowBasis(np.array(matrix), pivots, field)


def test_rowbasis_accepts_canonical_and_empty_bases():
    b = linalg.RowBasis(np.array([[1, 2, 0], [0, 0, 1]]), (0, 2), F3)
    assert b.dim == 2 and b.pivots == (0, 2)
    assert linalg.RowBasis(np.zeros((0, 4), dtype=np.int64), (), F2).dim == 0


def test_rowbasis_validation_rejects_junk():
    with pytest.raises(ValueError):
        linalg.RowBasis(np.array([[2, 0]]), (0,), F3)  # pivot not 1
    with pytest.raises(ValueError):
        linalg.RowBasis(np.array([[1, 1], [0, 1]]), (0, 1), F2)  # col 1 not clean
    with pytest.raises(ValueError):
        linalg.RowBasis(np.array([[1, 0]]), (0, 1), F2)  # pivot count


def test_mismatch_errors():
    a = linalg.rref([[1, 0]], F2)
    b = linalg.rref([[1, 0]], F3)
    with pytest.raises(ValueError):
        linalg.subspace_intersect(a, b)
    c = linalg.rref([[1, 0, 0]], F2)
    with pytest.raises(ValueError):
        linalg.subspace_intersect(a, c)
    with pytest.raises(ValueError):
        a.contains([1, 0, 0])


algebra_cases = st.tuples(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=80, deadline=None)
@given(algebra_cases)
def test_rank_nullity_fuzz(case):
    p, rows, cols, seed = case
    field = PrimeField(p)
    m = np.random.default_rng(seed).integers(0, p, size=(rows, cols))
    assert linalg.rank(m, field) + linalg.kernel(m, field).dim == cols


@settings(max_examples=80, deadline=None)
@given(algebra_cases, st.integers(min_value=0, max_value=2**32 - 1))
def test_sum_intersect_dimension_formula_fuzz(case, seed2):
    p, rows, cols, seed = case
    field = PrimeField(p)
    a = linalg.rref(np.random.default_rng(seed).integers(0, p, size=(rows, cols)), field)
    b = linalg.rref(np.random.default_rng(seed2).integers(0, p, size=(rows, cols)), field)
    both = a.matrix.tolist() + b.matrix.tolist()
    total = oracles.rank_mod_p(both, p) + linalg.subspace_intersect(a, b).dim
    assert total == a.dim + b.dim


intersect_cases = st.tuples(
    st.sampled_from([2, 3, 5]),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=120, deadline=None)
@given(intersect_cases)
def test_subspace_intersect_matches_dual_oracle_fuzz(case):
    # the dimension formula test above checks only dim; this one checks the
    # basis itself, zero-dimensional and equal inputs included, against
    # (A^perp + B^perp)^perp
    p, cols, a_rows, shared, extra, equal, seed = case
    field = PrimeField(p)
    rng = np.random.default_rng(seed)
    a = linalg.rref(rng.integers(0, p, size=(a_rows, cols)), field, width=cols)
    if equal:
        b = a
    else:
        # combinations of A's rows next to random rows, so the meet is often nonzero
        mixed = rng.integers(0, p, size=(shared, a.dim)) @ a.matrix
        fresh = rng.integers(0, p, size=(extra, cols))
        b = linalg.rref(np.vstack([mixed, fresh]), field, width=cols)
    meet = linalg.subspace_intersect(a, b)
    duals = np.vstack([linalg.kernel(a.matrix, field, width=cols).matrix,
                       linalg.kernel(b.matrix, field, width=cols).matrix])
    assert meet == linalg.kernel(duals, field, width=cols)
    assert a.contains_rows(meet.matrix) and b.contains_rows(meet.matrix)


@settings(max_examples=60, deadline=None)
@given(algebra_cases)
def test_kernel_biduality_fuzz(case):
    p, rows, cols, seed = case
    field = PrimeField(p)
    v = linalg.rref(np.random.default_rng(seed).integers(0, p, size=(rows, cols)), field)
    back = linalg.kernel(linalg.kernel(v.matrix, field, width=cols).matrix, field, width=cols)
    assert back == v


@settings(max_examples=60, deadline=None)
@given(algebra_cases)
def test_rank_matches_oracle_fuzz(case):
    p, rows, cols, seed = case
    field = PrimeField(p)
    m = np.random.default_rng(seed).integers(0, p, size=(rows, cols))
    assert linalg.rank(m, field) == oracles.rank_mod_p(m.tolist(), p)


@settings(max_examples=60, deadline=None)
@given(algebra_cases)
def test_kernel_is_the_whole_null_space(case):
    p, rows, cols, seed = case
    field = PrimeField(p)
    m = np.random.default_rng(seed).integers(0, p, size=(rows, cols))
    ker = linalg.kernel(m, field)
    assert ker.dim == cols - oracles.rank_mod_p(m.tolist(), p)
    assert not np.any((m @ ker.matrix.T) % p)
    assert ker == linalg.rref(ker.matrix, field, width=cols)


def test_f2_fast_path_matches_generic():
    rng = np.random.default_rng(11)
    for _ in range(60):
        rows, cols = rng.integers(1, 9, size=2)
        m = rng.integers(0, 2, size=(rows, cols))
        masks = [int(row @ (1 << np.arange(cols))) for row in m]
        assert linalg.f2_rank(masks) == linalg.rank(m, F2)
        packed = np.array(linalg.f2_rref(masks), dtype=np.int64).reshape(-1, 1)
        unpacked = (packed >> np.arange(cols)) & 1
        assert np.array_equal(unpacked, linalg.rref(m, F2).matrix)


def _stack_matrix(kind: str, p: int, rows: int, cols: int, seed: int) -> np.ndarray:
    """A zero, full-rank, rank-deficient or uniformly random rows x cols matrix."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, p, size=(rows, cols))
    if kind == "zero":
        return np.zeros((rows, cols), dtype=np.int64)
    if kind == "full":
        k = min(rows, cols)
        upper = np.triu(rng.integers(0, p, size=(k, cols)))
        upper[np.arange(k), np.arange(k)] = rng.integers(1, p, size=k)
        m[:k] = upper
        m[k:] = (rng.integers(0, p, size=(rows - k, k)) @ upper) % p
        return m[rng.permutation(rows)]
    if kind == "deficient" and rows >= 2:
        m[-1] = (m[0] * rng.integers(0, p) + m[-2]) % p
    if kind == "late":
        # pivots only in the last rows + 2 columns: across the 64- and
        # 128-bit word boundaries of the packed F_2 path at widths 65 and 130
        m[:, : max(0, cols - rows - 2)] = 0
    return m


stack_kinds = st.lists(
    st.tuples(
        st.sampled_from(["zero", "full", "deficient", "random", "late"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    min_size=0,
    max_size=6,
)
stack_cases = st.one_of(
    st.tuples(
        st.sampled_from([2, 3, 5, 7]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=7),
        stack_kinds,
    ),
    # over F_2 the stack is reduced on uint64 words: widths at the boundaries
    st.tuples(
        st.just(2),
        st.integers(min_value=0, max_value=6),
        st.sampled_from([63, 64, 65, 128, 130]),
        stack_kinds,
    ),
)


@settings(max_examples=160, deadline=None)
@given(stack_cases, st.integers(min_value=0, max_value=2**32 - 1))
def test_rref_stack_matches_rref_and_oracle(case, lift_seed):
    p, rows, cols, kinds = case
    field = PrimeField(p)
    matrices = [_stack_matrix(kind, p, rows, cols, seed) for kind, seed in kinds]
    stack = np.array(matrices, dtype=np.int64).reshape(len(kinds), rows, cols)
    # unreduced and negative representatives of the same residues
    lift = np.random.default_rng(lift_seed).integers(-2, 3, size=stack.shape)
    reduced, ranks = linalg.rref_stack(stack + p * lift, field)
    assert reduced.shape == stack.shape and ranks.shape == (len(kinds),)
    if p == 2:
        # the word kernel the F_2 sweeps use, against the int path
        words, word_ranks = linalg.f2_rref_stack(linalg.pack_f2(stack + p * lift), cols)
        assert np.array_equal(word_ranks, ranks)
        assert np.array_equal(linalg.unpack_f2(words, cols), reduced)
    for b, (kind, _) in enumerate(kinds):
        ref = linalg.rref(stack[b], field, width=cols)
        assert ranks[b] == ref.dim == oracles.rank_mod_p(stack[b].tolist(), p)
        assert np.array_equal(reduced[b, : ref.dim], ref.matrix)
        assert not reduced[b, ref.dim :].any()
        if kind == "zero":
            assert ranks[b] == 0
        if kind == "full":
            assert ranks[b] == min(rows, cols)


def test_rref_stack_single_matrix_and_rejects_flat_input():
    m = np.array([[[2, 1, 0], [1, 2, 0], [0, 0, 4]]])
    reduced, ranks = linalg.rref_stack(m, F5)
    assert ranks.tolist() == [3]
    assert np.array_equal(reduced[0], np.eye(3, dtype=np.int64))
    reduced, ranks = linalg.rref_stack(np.array([[[1, 1], [1, 1]]]), F2)
    assert ranks.tolist() == [1] and reduced[0].tolist() == [[1, 1], [0, 0]]
    with pytest.raises(ValueError):
        linalg.rref_stack(np.eye(3, dtype=np.int64), F3)


@pytest.mark.parametrize("p", [181, 65521])
def test_rref_stack_large_moduli_stay_exact(p):
    # large p pushes the unreduced entries past int16 (and int32 at 65521)
    field = PrimeField(p)
    stack = np.random.default_rng(p).integers(0, p, size=(4, 6, 8))
    stack[1, 5] = (stack[1, 0] * (p - 1) + stack[1, 2]) % p
    reduced, ranks = linalg.rref_stack(stack, field)
    assert reduced.dtype == {181: np.int32, 65521: np.int64}[p]  # the work dtype
    for b in range(4):
        ref = linalg.rref(stack[b], field)
        assert ranks[b] == ref.dim
        assert np.array_equal(reduced[b, : ref.dim], ref.matrix)


@pytest.mark.parametrize("cols, dtype", [(9, np.int16), (8191, np.int16), (8192, np.int32)])
def test_rref_stack_returns_its_work_dtype(cols, dtype):
    # the smallest dtype that holds (p-1) + cols*(p-1)^2 = 2 + 4*cols over F_3,
    # from digits given as bytes, with the values rref gives
    rng = np.random.default_rng(cols)
    stack = rng.integers(0, 3, size=(3, 5, cols))
    stack[2] = 0
    reduced, ranks = linalg.rref_stack(stack.astype(np.uint8), F3)
    assert reduced.dtype == dtype and reduced.shape == stack.shape
    for b in range(3):
        ref = linalg.rref(stack[b], F3)
        assert ranks[b] == ref.dim
        assert np.array_equal(reduced[b, : ref.dim], ref.matrix)
        assert not reduced[b, ref.dim :].any()


@pytest.mark.parametrize("p, cols", [(2, 63), (2, 64), (2, 65), (2, 128), (3, 9), (5, 9)])
def test_reduced_basis_of_kernel_rows_is_the_rref(p, cols):
    # packed words from f2_rref_stack over F_2, work-dtype rows from rref_stack otherwise
    field = PrimeField(p)
    kinds = ["zero", "full", "deficient", "random", "late"]
    stack = np.array([_stack_matrix(kind, p, 6, cols, seed) for seed, kind in enumerate(kinds)])
    if p == 2:
        reduced, ranks = linalg.f2_rref_stack(linalg.pack_f2(stack), cols)
    else:
        reduced, ranks = linalg.rref_stack(stack, field)
    for b, rank in enumerate(ranks.tolist()):
        basis = linalg.reduced_basis(reduced[b, :rank], field, cols)
        assert basis == linalg.rref(stack[b], field, width=cols)
        assert basis.matrix.dtype == np.int64


@pytest.mark.parametrize("cols", [1, 7, 8, 63, 64, 65, 130])
def test_pack_f2_reads_the_low_bit_of_any_entry(cols):
    # negative and unreduced entries pack as their residues mod 2, over any
    # leading axes
    m = np.random.default_rng(cols).integers(-5, 6, size=(2, 3, cols))
    words = linalg.pack_f2(m)
    assert words.shape == (2, 3, -(-cols // 64)) and words.dtype == np.uint64
    assert words.reshape(6, -1).tolist() == oracles.f2_words(m.reshape(6, cols).tolist())
    assert np.array_equal(linalg.unpack_f2(words, cols), m & 1)
