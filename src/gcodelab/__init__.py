"""Group-algebra codes over prime fields.

Right ideals of F_p[G] carry the Hamming metric; this package computes their
parameters, verifies the distance-dimension bound and its equality structure,
forms componentwise products and power chains, and machine-checks the
structural statements on concrete small groups.
"""

from types import ModuleType as _ModuleType

from .constructions import GolaySearchResult, golay_search, reed_muller, rm_schur_square_check
from .errors import GuardExceeded, UnsupportedCover, VerificationError
from .ffield import PrimeField
from .galg import AlgElem
from .gcode import (
    GCode,
    ParamReport,
    augmentation_ideal,
    ideal_from_generators,
    is_ideal,
    load_code,
    save_code,
    trivial_induced,
)
from .groups import (
    Group,
    Subgroup,
    direct_product,
    from_spec,
    is_p_group,
    is_subgroup,
    load_group,
    make_cyclic,
    make_dihedral,
    make_elementary_abelian,
    make_quaternion8,
    make_symmetric,
    normal_p_complement,
    p_part,
    right_cosets,
    save_group,
    subgroup_generated,
)
from .linalg import RowBasis, kernel, rank, rref
from .schur import (
    SchurChainReport,
    fixed_point_structure,
    schur_power_chain,
    schur_power_chains,
    schur_product,
    schur_products,
)
from .theorems import (
    EqualityWitness,
    ProjectiveCoverResult,
    UncertaintyResult,
    enumerate_cyclic_ideals,
    equality_analysis,
    idempotent_generator,
    projective_cover_trivial,
    schur_square_theorem_check,
    solv_check,
    uncertainty_check,
    verify_all,
    verify_bound,
    verify_equality,
    verify_schur,
    verify_uncertainty,
)

# the API names, without the submodules that importing them binds here
__all__ = [k for k, v in sorted(vars().items()) if k[0] != "_" and not isinstance(v, _ModuleType)]
__version__ = "0.1.0"
