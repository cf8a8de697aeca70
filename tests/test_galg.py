from itertools import product

import numpy as np
import pytest

import oracles
from gcodelab import linalg
from gcodelab.ffield import PrimeField
from gcodelab.galg import AlgElem, translate_weights
from gcodelab.groups import from_spec, make_cyclic, make_elementary_abelian, make_symmetric

F2, F3 = PrimeField(2), PrimeField(3)
C2 = make_cyclic(2)
C4 = make_cyclic(4)
S3 = make_symmetric(3)


def all_elements(group, field):
    for coeffs in product(range(field.p), repeat=group.order):
        yield AlgElem(group, field, coeffs)


def test_support_weight_examples():
    zero = AlgElem.zero(C4, F2)
    assert zero.support() == set() and zero.weight() == 0
    ones = AlgElem.all_ones(C4, F2)
    assert ones.support() == {0, 1, 2, 3} and ones.weight() == 4
    c = AlgElem(C2, F3, [1, 2])
    assert c.support() == {0, 1} and c.weight() == 2


def test_hamming_distance_examples():
    f = AlgElem(C4, F3, [1, 0, 2, 0])
    assert f.hamming_distance(f) == 0
    assert f.hamming_distance(AlgElem.zero(C4, F3)) == f.weight()
    a = AlgElem(C2, F3, [1, 1])
    b = AlgElem(C2, F3, [1, 2])
    assert a.hamming_distance(b) == 1


def test_convolve_examples():
    one = AlgElem.basis_elem(S3, F2, 0)
    f = AlgElem(S3, F2, [1, 0, 1, 1, 0, 0])
    assert f.convolve(one) == f and one.convolve(f) == f

    c = AlgElem(C2, F3, [1, 2])
    assert c.convolve(c).coeffs.tolist() == [2, 1]

    ones = AlgElem.all_ones(S3, F3)
    h = AlgElem(S3, F3, [1, 0, 2, 0, 1, 2])
    assert ones.convolve(h) == ones.scale(h.augmentation())


def test_convolve_matches_oracle():
    rng = np.random.default_rng(3)
    for group, field in ((C4, F3), (S3, F2)):
        table = group.table.tolist()
        for _ in range(20):
            f = rng.integers(0, field.p, size=group.order)
            h = rng.integers(0, field.p, size=group.order)
            fast = AlgElem(group, field, f).convolve(AlgElem(group, field, h))
            assert fast.coeffs.tolist() == oracles.convolve_scan(
                table, f.tolist(), h.tolist(), field.p
            )


def test_convolve_identity_exhaustive_small():
    for group, field in ((C4, F2), (C2, F3), (S3, F2)):
        one = AlgElem.basis_elem(group, field, 0)
        for f in all_elements(group, field):
            assert f.convolve(one) == f
            assert one.convolve(f) == f


def test_convolve_associative_exhaustive_tiny():
    for group, field in ((make_cyclic(3), F2), (make_cyclic(4), F2), (make_cyclic(3), F3)):
        elems = list(all_elements(group, field))
        for f in elems:
            for g in elems:
                fg = f.convolve(g)
                for h in elems:
                    assert fg.convolve(h) == f.convolve(g.convolve(h))


def test_convolve_associative_fuzz():
    rng = np.random.default_rng(5)
    for group, field in ((S3, F3), (make_elementary_abelian(2, 3), F2), (C4, F3)):
        for _ in range(300):
            f, g, h = (
                AlgElem(group, field, rng.integers(0, field.p, size=group.order))
                for _ in range(3)
            )
            assert f.convolve(g).convolve(h) == f.convolve(g.convolve(h))


def test_right_translate_examples():
    f = AlgElem(C4, F3, [1, 2, 0, 1])
    assert f.right_translate(0) == f
    for g in range(4):
        assert f.right_translate(g).weight() == f.weight()
    e = AlgElem(C2, F2, [1, 1])
    assert e.right_translate(1) == e


def test_right_translate_is_convolution_by_basis_elem():
    for group, field in ((C4, F3), (S3, F2)):
        for f in list(all_elements(group, field))[:100]:
            for g in range(group.order):
                basis = AlgElem.basis_elem(group, field, g)
                assert f.right_translate(g) == f.convolve(basis)


def test_schur_examples():
    f = AlgElem(C4, F3, [1, 2, 0, 1])
    assert f.schur(AlgElem.all_ones(C4, F3)) == f
    c = AlgElem(C2, F3, [1, 2])
    assert c.schur(c).coeffs.tolist() == [1, 1]
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = AlgElem(C4, F2, rng.integers(0, 2, size=4))
        b = AlgElem(C4, F2, rng.integers(0, 2, size=4))
        assert a.schur(b).support() == (a.support() & b.support())


def test_schur_algebraic_laws():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a, b, c = (AlgElem(C4, F3, rng.integers(0, 3, size=4)) for _ in range(3))
        assert a.schur(b) == b.schur(a)
        assert a.schur(b).schur(c) == a.schur(b.schur(c))
        assert (a + b).schur(c) == a.schur(c) + b.schur(c)


def test_augmentation_examples():
    assert AlgElem.zero(C4, F3).augmentation() == 0
    assert AlgElem.all_ones(C4, F3).augmentation() == 4 % 3
    assert AlgElem(C2, F3, [1, 2]).augmentation() == 0


def test_inner_examples_and_coordinate_route():
    f = AlgElem(C4, F3, [1, 2, 0, 1])
    assert f.inner(AlgElem.zero(C4, F3)) == 0
    e = AlgElem(C2, F2, [1, 1])
    assert e.inner(e) == 0
    c = AlgElem(C2, F3, [1, 2])
    assert c.inner(c) == 2
    rng = np.random.default_rng(17)
    for _ in range(30):
        a = AlgElem(S3, F3, rng.integers(0, 3, size=6))
        b = AlgElem(S3, F3, rng.integers(0, 3, size=6))
        assert a.inner(b) == int(a.coeffs @ b.coeffs) % 3  # independent route


def test_translation_is_an_isometry_of_inner():
    rng = np.random.default_rng(19)
    for group, field in ((C4, F3), (S3, F2)):
        for _ in range(30):
            f = AlgElem(group, field, rng.integers(0, field.p, size=group.order))
            h = AlgElem(group, field, rng.integers(0, field.p, size=group.order))
            for g in range(group.order):
                assert f.right_translate(g).inner(h.right_translate(g)) == f.inner(h)


def test_multiplication_matrix():
    one = AlgElem.basis_elem(C4, F3, 0)
    assert np.array_equal(one.multiplication_matrix(), np.eye(4, dtype=np.int64))
    c = AlgElem(C2, F3, [1, 2])
    m = c.multiplication_matrix()
    assert m.tolist() == [[1, 2], [2, 1]]
    assert linalg.rank(m, F3) == 1
    for group, field in ((C4, F2), (S3, F2), (C4, F3)):
        ones = AlgElem.all_ones(group, field)
        assert linalg.rank(ones.multiplication_matrix(), field) == 1


def test_multiplication_matrix_columns_are_translates():
    rng = np.random.default_rng(23)
    for group, field in ((C4, F3), (S3, F2)):
        for _ in range(10):
            f = AlgElem(group, field, rng.integers(0, field.p, size=group.order))
            m = f.multiplication_matrix()
            for j in range(group.order):
                assert m[:, j].tolist() == f.right_translate(j).coeffs.tolist()


def test_support_rank_bound_small_sweep():
    for group, field in ((make_cyclic(8), F2), (C4, F3)):
        n = group.order
        for f in all_elements(group, field):
            if f.is_zero():
                continue
            rank = linalg.rank(f.multiplication_matrix(), field)
            assert f.weight() * rank >= n


def test_text_round_trip_and_errors():
    c = AlgElem.from_text(C2, F3, "1,2")
    assert c.coeffs.tolist() == [1, 2] and c.to_text() == "1,2"
    assert repr(c) == "1+2r"
    with pytest.raises(ValueError):
        AlgElem.from_text(C2, F3, "1,2,0")
    with pytest.raises(ValueError):
        AlgElem(C2, F3, [1, 2]).convolve(AlgElem(C2, F2, [1, 1]))
    with pytest.raises(ValueError):
        AlgElem(C2, F3, [1, 2]).schur(AlgElem(C4, F3, [1, 0, 0, 0]))


def test_mixed_modulus_rejected():
    a = AlgElem(make_cyclic(2), F2, [1, 0])
    b = AlgElem(make_cyclic(2), F3, [1, 0])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    assert a != b


def test_equality_across_groups():
    # C4 and C2 x C2 share order and field but not their multiplication
    c4 = AlgElem(make_cyclic(4), F2, [1, 1, 0, 0])
    klein = AlgElem(make_elementary_abelian(2, 2), F2, [1, 1, 0, 0])
    assert c4 != klein and klein != c4
    assert c4 == AlgElem(make_cyclic(4), F2, [1, 1, 0, 0])  # equal tables
    with pytest.raises(ValueError):
        c4 + klein


@pytest.mark.parametrize(
    "spec",
    ["cyclic:1", "cyclic:24", "symmetric:4", "cyclic:62", "cyclic:63", "cyclic:64",
     "cyclic:65", "symmetric:5", "cyclic:128"],
)
def test_translate_weights_pack_the_translate_supports(spec):
    # orders on both sides of every word boundary; the all-ones element sets
    # bit 63 (the sign bit) of every full word
    group = from_spec(spec)
    n = group.order
    rng = np.random.default_rng(n)
    coeffs = np.vstack([
        np.ones((1, n), dtype=np.int64),
        rng.integers(0, 3, size=(3, n)),
        rng.random((3, n)) < 0.05,
    ]).astype(np.int64)
    weights = translate_weights(group)
    assert weights.shape == (-(-n // 64), n, n) and weights.dtype == np.int64
    masks = (coeffs != 0).astype(np.int64) @ weights
    for i, row in enumerate(coeffs):
        want = oracles.translate_support_words(AlgElem(group, F3, row))
        assert masks[:, i, :].T.tolist() == want
