import numpy as np
import oracles
import pytest

from gcodelab import gcode as gc
from gcodelab import groups, linalg, schur, theorems
from gcodelab.errors import VerificationError
from gcodelab.ffield import PrimeField
from gcodelab.galg import AlgElem
from gcodelab.groups import (
    Subgroup,
    from_spec,
    make_cyclic,
    make_dihedral,
    make_elementary_abelian,
    make_quaternion8,
    make_symmetric,
)
from gcodelab.theorems import enumerate_cyclic_ideals

F2, F3 = PrimeField(2), PrimeField(3)
C2 = make_cyclic(2)
C4 = make_cyclic(4)


def test_product_examples():
    code = gc.trivial_induced(C4, F2, Subgroup(C4, [0, 2]))
    zero = oracles.zero_code(C4, F2)
    assert schur.schur_product(code, zero).dim == 0
    # an empty product stack carries its width into the reduction and the meet
    assert schur.schur_product(zero, zero) == zero

    line = gc.ideal_from_generators(C2, F3, [AlgElem(C2, F3, [1, 2])])
    square = schur.schur_product(line, line)
    assert square.basis.matrix.tolist() == [[1, 1]]

    assert schur.schur_product(code, code) == code


@pytest.mark.parametrize(
    "spec, p",
    [
        ("cyclic:8", 2),
        ("elemabelian:2,3", 2),
        ("quaternion8", 2),
        ("symmetric:3", 3),
        ("cyclic:6", 3),
        ("dihedral:4", 3),
    ],
)
def test_products_match_the_rref_oracle(spec, p):
    # one batch of every pair of cyclic ideals and the zero code mixes the
    # squares with the other products; the swapped pairs are a second batch
    group, field = from_spec(spec), PrimeField(p)
    codes = [code for _, code in enumerate_cyclic_ideals(group, field)]
    codes.append(oracles.zero_code(group, field))
    pairs = [(a, b) for i, a in enumerate(codes) for b in codes[i:]]
    expected = [oracles.schur_product_by_rref(a, b) for a, b in pairs]
    assert schur.schur_products(pairs) == expected
    assert schur.schur_products([(b, a) for a, b in pairs]) == expected
    squares = [(code, code) for code in codes]
    assert schur.schur_products(squares) == [oracles.schur_product_by_rref(*ab) for ab in squares]
    assert schur.schur_products([]) == []


def test_product_meets_its_bound_with_equality():
    # dim(C*C') = k*k' - binom(meet, 2) here, so an overstated meet would raise
    c6 = dict(enumerate_cyclic_ideals(make_cyclic(6), F3))
    c7 = dict(enumerate_cyclic_ideals(make_cyclic(7), F2))
    for a, b, dims in ((c6[44], c6[140], (3, 2, 2, 5)), (c7[23], c7[23], (3, 3, 3, 6))):
        meet = linalg.subspace_intersect(a.basis, b.basis).dim
        prod = schur.schur_product(a, b)
        assert (a.dim, b.dim, meet, prod.dim) == dims
        assert prod.dim == a.dim * b.dim - meet * (meet - 1) // 2


def test_verify_all_needs_no_intersection(monkeypatch):
    def refuse(a, b):
        raise AssertionError("subspace_intersect called")

    monkeypatch.setattr(linalg, "subspace_intersect", refuse)
    for group in (make_dihedral(4), make_cyclic(16)):
        assert theorems.verify_all(group, F2)["failures"] == []


def test_product_mismatch_errors():
    a = oracles.full_algebra(C2, F2)
    b = oracles.full_algebra(C2, F3)
    with pytest.raises(ValueError):
        schur.schur_product(a, b)
    c = oracles.full_algebra(C4, F2)
    with pytest.raises(ValueError):
        schur.schur_product(a, c)


def test_products_refuse_mixed_codes_and_report_each_failure_in_place(monkeypatch):
    a = oracles.full_algebra(C2, F2)
    with pytest.raises(ValueError, match="modulus mismatch: 2 vs 3"):
        schur.schur_products([(a, a), (a, oracles.full_algebra(C2, F3))])
    with pytest.raises(ValueError, match="different groups"):
        schur.schur_products([(a, a), (oracles.full_algebra(C4, F2), a)])
    # the all-ones line times the even-weight code is read as the full
    # algebra, above the bound 3, and the full algebra times the line as
    # e_0, not an ideal; the squares between them stand
    ones = gc.ideal_from_generators(C4, F2, [AlgElem.all_ones(C4, F2)])
    even = gc.augmentation_ideal(C4, F2)
    full = oracles.full_algebra(C4, F2)
    eye = np.eye(4, dtype=np.int64)
    fakes = iter([eye, eye[:1]])
    products = schur._products

    def faked(power, base, p, square):
        return products(power, base, p, square) if square else linalg.pack_f2(next(fakes))

    monkeypatch.setattr(schur, "_products", faked)
    outcomes = schur.schur_products([(full, full), (ones, even), (even, even), (full, ones)])
    assert outcomes[0] == full and outcomes[2] == full
    assert isinstance(outcomes[1], VerificationError)
    assert str(outcomes[1]) == "product dimension 4 exceeds the bound 3"
    assert type(outcomes[3]) is ValueError
    assert str(outcomes[3]) == "basis does not span a right ideal"


def test_product_closure_and_dimension_bound_sweep():
    # every pairwise product of cyclic ideals is an ideal again (construction
    # would raise otherwise) and obeys the dimension cap
    for group, field in ((make_cyclic(8), F2), (make_elementary_abelian(2, 3), F2)):
        ideals = [code for _, code in enumerate_cyclic_ideals(group, field)]
        n = group.order
        for a in ideals:
            for b in ideals:
                prod = schur.schur_product(a, b)
                cap = min(n, a.dim * b.dim)
                assert prod.dim <= cap


def test_square_dimension_bound_binomial_form():
    for group, field in ((make_cyclic(8), F2), (C4, F3)):
        for _, code in enumerate_cyclic_ideals(group, field):
            k = code.dim
            square = schur.schur_product(code, code)
            assert square.dim <= min(group.order, k * (k + 1) // 2)


def test_power_chain_full_algebra():
    full = oracles.full_algebra(C4, F2)
    rep = schur.schur_power_chain(full)
    assert rep.dims == [4]
    assert rep.regularity == 1 and rep.period == 1 and rep.complete
    assert rep.stabilizer_subgroup.members == (0,)


def test_power_chain_induced_is_fixed():
    code = gc.trivial_induced(C4, F2, Subgroup(C4, [0, 2]))
    rep = schur.schur_power_chain(code)
    assert rep.dims == [2] and rep.regularity == 1 and rep.period == 1
    assert rep.stabilized_code == code
    assert rep.stabilizer_subgroup.members == (0, 2)


def test_power_chain_ternary_two_cycle():
    line = gc.ideal_from_generators(C2, F3, [AlgElem(C2, F3, [1, 2])])
    rep = schur.schur_power_chain(line)
    assert rep.dims == [1, 1]
    assert rep.regularity == 1 and rep.period == 2 and rep.complete
    assert rep.stabilized_code is None and rep.stabilizer_subgroup is None
    # the orbit alternates between the generator line and the all-ones line
    assert rep.codes[1].basis.matrix.tolist() == [[1, 1]]
    third = schur.schur_product(rep.codes[1], line)
    assert third == line


def test_power_chain_growth_then_stabilization():
    # the even-weight ideal of C8 squares up to everything
    even = gc.augmentation_ideal(make_cyclic(8), F2)
    rep = schur.schur_power_chain(even)
    assert rep.dims[0] == 7 and rep.dims[-1] == 8
    assert rep.complete and rep.period == 1
    assert rep.stabilized_code.dim == 8
    assert rep.regularity == len(rep.dims)
    assert rep.dims == sorted(rep.dims)


def test_power_chain_partial_when_capped():
    even = gc.augmentation_ideal(make_cyclic(8), F2)
    rep = schur.schur_power_chain(even, max_t=1)
    assert not rep.complete and rep.regularity is None and rep.period is None


@pytest.mark.parametrize("max_t", [0, -2])
def test_power_chain_needs_room_for_the_code(max_t):
    # both printed the one-entry report of max_t=1
    even = gc.augmentation_ideal(make_cyclic(8), F2)
    with pytest.raises(ValueError, match=f"max_t must be at least 1, not {max_t}"):
        schur.schur_power_chain(even, max_t=max_t)


def test_power_chain_zero_rejected():
    with pytest.raises(ValueError):
        schur.schur_power_chain(oracles.zero_code(C4, F2))


def test_fixed_point_structure_examples():
    assert schur.fixed_point_structure(oracles.full_algebra(C4, F2)).members == (0,)

    ones = gc.ideal_from_generators(C4, F2, [AlgElem.all_ones(C4, F2)])
    assert schur.fixed_point_structure(ones).members == (0, 1, 2, 3)

    c6 = make_cyclic(6)
    h = Subgroup(c6, [0, 3])
    code = gc.trivial_induced(c6, F2, h)
    assert schur.fixed_point_structure(code).members == (0, 3)


def test_fixed_point_structure_preconditions():
    with pytest.raises(ValueError):
        schur.fixed_point_structure(oracles.zero_code(C4, F2))
    even = gc.augmentation_ideal(C4, F2)  # not Schur-fixed
    with pytest.raises(ValueError):
        schur.fixed_point_structure(even)


def test_fixed_points_are_induced_spans_sweep():
    cases = (
        (make_cyclic(8), F2),
        (make_elementary_abelian(2, 2), F2),
        (make_dihedral(4), F2),
        (C4, F3),
        (make_symmetric(3), F3),
        (make_cyclic(9), F3),
    )
    for group, field in cases:
        for _, code in enumerate_cyclic_ideals(group, field):
            if schur.schur_product(code, code) != code:
                with pytest.raises(ValueError) as err:
                    schur.fixed_point_structure(code)
                assert err.type is ValueError
                assert str(err.value) == "code is not fixed under its own Schur square"
                continue
            sub = schur.fixed_point_structure(code)
            assert gc.trivial_induced(group, field, sub) == code
            assert len(sub) * code.dim == group.order
            # the basis read agrees with the support of the minimum-weight
            # word through the identity
            word = code.min_weight_codeword()
            assert sub.members == tuple(sorted(word.support()))
            assert len(sub) == code.min_distance()


def _subgroups(group):
    table, inverse = group.table.tolist(), group.inverse.tolist()
    return [Subgroup(group, m) for m in oracles.two_generated_subgroups(table, inverse)]


@pytest.mark.parametrize(
    "spec, p",
    [("dihedral:4", 2), ("dihedral:4", 3), ("symmetric:3", 3), ("quaternion8", 2), ("dihedral:6", 2)],
)
def test_basis_check_agrees_with_the_induced_code(monkeypatch, spec, p):
    # the certificates read a code's own basis: constant on every right coset
    # of H, with dim * |H| = |G|, exactly when the code is H's induced span
    group, field = from_spec(spec), PrimeField(p)
    induced = gc.trivial_induced
    built = []

    def counted(group, field, sub):
        built.append(sub.members)
        return induced(group, field, sub)

    monkeypatch.setattr(gc, "trivial_induced", counted)
    subgroups = _subgroups(group)
    fixed_codes = equality_codes = 0
    for _, code in enumerate_cyclic_ideals(group, field):
        try:
            fixed = schur.fixed_point_structure(code)
            fixed_codes += 1
        except ValueError:
            fixed = None
        for h in subgroups:
            if code.dim * len(h) != group.order:
                continue
            is_induced = induced(group, field, h) == code
            assert gc.is_induced(code, h) == is_induced
            assert (fixed == h) == is_induced
        # equality_analysis builds the induced code only when it differs
        assert built == []
        witness = theorems.equality_analysis(code)
        if witness is not None:
            equality_codes += 1
            differs = induced(group, field, witness.subgroup) != code
            assert built == ([witness.subgroup.members] if differs else [])
            built.clear()
    assert fixed_codes > 2 and equality_codes > 2


def test_fixed_point_structure_on_every_s4_induced_code():
    s4 = make_symmetric(4)
    subgroups = _subgroups(s4)
    assert len(subgroups) == 30
    induced = [gc.trivial_induced(s4, F2, h) for h in subgroups]
    for h, code in zip(subgroups, induced):
        assert schur.fixed_point_structure(code) == h
        # the basis read agrees with building the induced span, whatever |H|
        for other, span in zip(subgroups, induced):
            assert gc.is_induced(code, other) == (span == code) == (other == h)
    # likewise on D6 over F3, for its induced spans and its cyclic ideals
    d6 = from_spec("dihedral:6")
    subgroups = _subgroups(d6)
    induced = [gc.trivial_induced(d6, F3, h) for h in subgroups]
    codes = induced + [code for _, code in enumerate_cyclic_ideals(d6, F3)]
    matches = 0
    for code in codes:
        for h, span in zip(subgroups, induced):
            assert gc.is_induced(code, h) == (span == code)
            matches += span == code
    # each induced span is cyclic, generated by the sum over H, so it is
    # matched once among the spans and once among the ideals
    assert matches == 2 * len(subgroups)


def test_fixed_point_structure_squares_only_a_failing_code(monkeypatch):
    squares = []
    product = schur.schur_product

    def counted(a, b):
        squares.append(a)
        return product(a, b)

    monkeypatch.setattr(schur, "schur_product", counted)
    code = gc.trivial_induced(C4, F2, Subgroup(C4, [0, 2]))
    assert schur.fixed_point_structure(code).members == (0, 2)
    assert squares == []
    with pytest.raises(ValueError):
        schur.fixed_point_structure(gc.augmentation_ideal(C4, F2))
    assert len(squares) == 1
    # a Schur-fixed code that fails its certificate is a bug, not bad input:
    # read as one coset, its basis is not constant on it
    monkeypatch.setattr(groups, "coset_minima", lambda g, h: np.zeros(g.order, dtype=np.int64))
    with pytest.raises(VerificationError, match="identity block"):
        schur.fixed_point_structure(code)
    assert len(squares) == 2


def test_binary_power_chain_ascends():
    # over F_2 the chain checks C <= C*C and the ascending 2-power tower
    full = oracles.full_algebra(make_cyclic(8), F2)
    ideals = [code for _, code in enumerate_cyclic_ideals(make_cyclic(8), F2)]
    for code in [full] + ideals:
        rep = schur.schur_power_chain(code)
        assert rep.complete and rep.period == 1
        square = rep.codes[1] if len(rep.codes) > 1 else rep.stabilized_code
        assert code.issubset(square)
        for i in range(len(rep.codes).bit_length() - 1):
            assert rep.codes[2**i - 1].issubset(rep.codes[2 ** (i + 1) - 1])


def test_binary_power_chain_rejects_a_descent(monkeypatch):
    # e_1..e_7 span {x : x_0 = 0}, a 7-dim space without the even-weight code,
    # so a square read as that span keeps the dimension but does not ascend
    even = gc.augmentation_ideal(make_cyclic(8), F2)
    off_identity = linalg.pack_f2(np.eye(8, dtype=np.int64)[1:])
    products = schur._products

    def faked(power, base, p, square):
        return off_identity if p == 2 else products(power, base, p, square)

    monkeypatch.setattr(schur, "_products", faked)
    with pytest.raises(VerificationError, match="failed to ascend"):
        schur.schur_power_chain(even)
    # the ternary 2-cycle does not ascend, and F_3 runs no such check
    line = gc.ideal_from_generators(C2, F3, [AlgElem(C2, F3, [1, 2])])
    assert schur.schur_power_chain(line).period == 2


def _chain_fields(rep):
    members = rep.stabilizer_subgroup.members if rep.stabilizer_subgroup else None
    keys = [code.key() for code in rep.codes]
    return rep.dims, rep.regularity, rep.period, rep.complete, keys, members


def _every_cyclic_ideal(spec, p):
    group, field = from_spec(spec), PrimeField(p)
    if (spec, p) != ("cyclic:10", 5):
        return [code for _, code in enumerate_cyclic_ideals(group, field)]
    # 5^10 generators take seconds to sweep; over F_5 x^10 - 1 is
    # (x - 1)^5 (x + 1)^5, so the ideals are those of (x - 1)^a (x + 1)^b
    codes = []
    for a in range(6):
        for b in range(6 if a < 5 else 5):
            poly = [1]
            for root in [1] * a + [-1] * b:
                poly = np.convolve(poly, [-root, 1])
            coeffs = np.zeros(10, dtype=np.int64)
            coeffs[: len(poly)] = poly
            elem = AlgElem(group, field, coeffs % 5)
            codes.append(gc.ideal_from_generators(group, field, [elem]))
    assert len({code.key() for code in codes}) == 35
    return codes


@pytest.mark.parametrize(
    "spec, p",
    [
        ("cyclic:16", 2),
        ("dihedral:4", 2),
        ("quaternion8", 2),
        ("dihedral:8", 2),
        ("symmetric:3", 3),
        ("cyclic:9", 3),
        ("dihedral:6", 3),
        ("cyclic:10", 5),
    ],
)
def test_batched_chains_match_the_product_loop(spec, p):
    codes = _every_cyclic_ideal(spec, p)
    for max_t in (None, 2):
        chains = schur.schur_power_chains(codes, max_t=max_t)
        assert len(chains) == len(codes)
        for code, chain in zip(codes, chains):
            assert _chain_fields(chain) == oracles.power_chain_by_products(code, max_t)
            if chain.period == 1:
                assert chain.stabilized_code == chain.codes[-1]


def test_a_failing_chain_is_reported_at_its_own_ideal(monkeypatch):
    # C16/F2 has one ideal of each dimension; three squares in the middle of
    # the batch are read as spans that break the bound, the dimension and
    # the ascent, and the other chains must not notice
    group = make_cyclic(16)
    ideals = enumerate_cyclic_ideals(group, F2)
    codes = [code for _, code in ideals]
    clean = schur.schur_power_chains(codes)
    eye = np.eye(16, dtype=np.int64)
    broken = {
        2: (eye, "product dimension 16 exceeds the bound 3"),
        4: (eye[:1], "power dimension decreased along the chain"),
        15: (eye[1:], "binary power chain failed to ascend"),
    }
    fakes = {
        linalg.pack_f2(code.basis.matrix).tobytes(): linalg.pack_f2(broken[code.dim][0])
        for code in codes
        if code.dim in broken
    }
    products = schur._products

    def faked(power, base, p, square):
        if square and base.tobytes() in fakes:
            return fakes[base.tobytes()]
        return products(power, base, p, square)

    monkeypatch.setattr(schur, "_products", faked)
    positions = [i for i, code in enumerate(codes) if code.dim in broken]
    assert len(positions) == 3 and 0 < min(positions) and max(positions) < len(codes) - 1
    chains = schur.schur_power_chains(codes)
    for code, chain, before in zip(codes, chains, clean):
        if code.dim in broken:
            assert isinstance(chain, VerificationError)
            assert str(chain) == broken[code.dim][1]
        else:
            assert _chain_fields(chain) == _chain_fields(before)
    report = theorems.verify_schur(group, F2, ideals=ideals)
    assert report["checked"] == len(ideals)
    assert report["failures"] == [
        {"f": fidx, "reason": broken[code.dim][1]} for fidx, code in ideals if code.dim in broken
    ]


def test_a_failing_pairwise_product_is_reported_at_its_own_pair(monkeypatch):
    # Q8/F2 lies under the pairwise cap.  Two products of a 2-dim ideal with
    # a 4-dim one are read as spans that break the bound and that are no
    # ideal; a chain step multiplies a power of at least the base's
    # dimension, so no chain meets the fakes, and the other pairs must not
    # notice
    group = make_quaternion8()
    ideals = enumerate_cyclic_ideals(group, F2)
    assert group.order <= theorems._PAIRWISE_PRODUCT_CAP

    def outside(a, b):
        raise AssertionError("a product outside the batched steps")

    monkeypatch.setattr(schur, "schur_product", outside)
    clean = theorems.verify_schur(group, F2, ideals=ideals)
    assert clean["failures"] == []
    assert clean["checked"] == len(ideals) * (len(ideals) + 3) // 2
    codes = dict(ideals)
    eye = np.eye(8, dtype=np.int64)
    broken = {
        (15, 85): (eye, "product dimension 8 exceeds the bound 7"),
        (51, 86): (eye[:1], "basis does not span a right ideal"),
    }
    fakes = {}
    for (fi, fj), (rows, _) in broken.items():
        a, b = codes[fi], codes[fj]
        assert (a.dim, b.dim, linalg.subspace_intersect(a.basis, b.basis).dim) == (2, 4, 2)
        key = (linalg.pack_f2(a.basis.matrix).tobytes(), linalg.pack_f2(b.basis.matrix).tobytes())
        fakes[key] = linalg.pack_f2(rows)
    products = schur._products

    def faked(power, base, p, square):
        fake = None if square else fakes.get((power.tobytes(), base.tobytes()))
        return products(power, base, p, square) if fake is None else fake

    monkeypatch.setattr(schur, "_products", faked)
    report = theorems.verify_schur(group, F2, ideals=ideals)
    assert report["checked"] == clean["checked"]
    assert report["failures"] == [
        {"f": f, "reason": f"pairwise product: {reason}"} for f, (_, reason) in broken.items()
    ]


def test_power_chains_refuse_mixed_or_zero_codes():
    assert schur.schur_power_chains([]) == []
    even = gc.augmentation_ideal(C4, F2)
    with pytest.raises(ValueError, match="different groups"):
        schur.schur_power_chains([even, gc.augmentation_ideal(make_cyclic(8), F2)])
    with pytest.raises(ValueError, match="modulus mismatch"):
        schur.schur_power_chains([even, gc.augmentation_ideal(C4, F3)])
    with pytest.raises(ValueError, match="nonzero"):
        schur.schur_power_chains([even, oracles.zero_code(C4, F2)])


