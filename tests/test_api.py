import gcodelab


def test_public_api_is_pinned():
    # every name the package exports, the imported submodules included; a
    # change to the exports shows in this list
    assert sorted(gcodelab.__all__) == [
        "AlgElem", "EqualityWitness", "GCode", "GolaySearchResult", "Group",
        "GuardExceeded", "ParamReport", "PrimeField", "ProjectiveCoverResult",
        "RowBasis", "SchurChainReport", "Subgroup", "UncertaintyResult",
        "UnsupportedCover", "VerificationError", "augmentation_ideal",
        "constructions", "direct_product", "enumerate_cyclic_ideals",
        "equality_analysis", "errors", "ffield", "fixed_point_structure",
        "from_spec", "galg", "gcode", "golay_search", "groups",
        "ideal_from_generators", "idempotent_generator", "is_ideal", "is_p_group",
        "is_subgroup", "kernel", "linalg", "load_code", "load_group", "make_cyclic",
        "make_dihedral", "make_elementary_abelian", "make_quaternion8",
        "make_symmetric", "normal_p_complement", "p_part",
        "projective_cover_trivial", "rank", "reed_muller", "right_cosets",
        "rm_schur_square_check", "rref", "save_code", "save_group", "schur",
        "schur_power_chain", "schur_power_chains", "schur_product",
        "schur_products", "schur_square_theorem_check", "solv_check",
        "subgroup_generated", "theorems", "trivial_induced", "uncertainty_check",
        "verify_all", "verify_bound", "verify_equality", "verify_schur",
        "verify_uncertainty",
    ]
