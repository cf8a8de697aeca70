import gcodelab

SUBMODULES = [
    "constructions", "errors", "ffield", "galg", "gcode", "groups", "linalg",
    "schur", "theorems",
]


def test_public_api_is_pinned():
    # every name the package exports; a change to the exports shows in this list
    assert sorted(gcodelab.__all__) == [
        "AlgElem", "EqualityWitness", "GCode", "GolaySearchResult", "Group",
        "GuardExceeded", "ParamReport", "PrimeField", "ProjectiveCoverResult",
        "RowBasis", "SchurChainReport", "Subgroup", "UncertaintyResult",
        "UnsupportedCover", "VerificationError", "augmentation_ideal",
        "direct_product", "enumerate_cyclic_ideals", "equality_analysis",
        "fixed_point_structure", "from_spec", "golay_search",
        "ideal_from_generators", "idempotent_generator", "is_ideal", "is_p_group",
        "is_subgroup", "kernel", "load_code", "load_group", "make_cyclic",
        "make_dihedral", "make_elementary_abelian", "make_quaternion8",
        "make_symmetric", "normal_p_complement", "p_part",
        "projective_cover_trivial", "rank", "reed_muller", "right_cosets",
        "rm_schur_square_check", "rref", "save_code", "save_group",
        "schur_power_chain", "schur_power_chains", "schur_product",
        "schur_products", "schur_square_theorem_check", "solv_check",
        "subgroup_generated", "trivial_induced", "uncertainty_check",
        "verify_all", "verify_bound", "verify_equality", "verify_schur",
        "verify_uncertainty",
    ]


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from gcodelab import *", namespace)
    assert not set(SUBMODULES) & set(namespace)
    # the submodules stay attributes of the package
    for name in SUBMODULES:
        assert getattr(gcodelab, name).__name__ == f"gcodelab.{name}"
