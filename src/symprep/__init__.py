"""symprep: exact mod-p representation computations for symmetric and
classical groups, with a verification harness for the finite claims the
package is built to check (symplectic invariance, parabolic intersection
ranks, unipotent intersections with classical groups, Loewy series of
modular symmetric-group representations)."""

from .classical import (grid_points, grid_rows, intersection_dim,
                        make_classical, rp_reference, ug_generators)
from .dickson import (check_invariance, diagonal_rep, dickson_form,
                      lagrangian_pair, parabolic_trivial_subgroup, perm_irrep,
                      siegel_unipotent_dim)
from .field import GF, make_field
from .linalg import GF2, Mat, Subspace, joint_fixed_space, kernel, quotient_action
from .records import SuiteConfig, VerificationReport, make_report
from .snmod import (GModule, LoewySeries, basic_spin_restriction,
                    cyclic_profile, fingerprint, free_summand_count,
                    irreducible_D, loewy_length, specht_module, tensor_module,
                    verify_appendix)
from .suites import run_suite

__version__ = "0.1.0"

__all__ = [
    "GF",
    "GF2",
    "make_field",
    "Mat",
    "Subspace",
    "kernel",
    "joint_fixed_space",
    "quotient_action",
    "perm_irrep",
    "dickson_form",
    "check_invariance",
    "lagrangian_pair",
    "parabolic_trivial_subgroup",
    "diagonal_rep",
    "siegel_unipotent_dim",
    "make_classical",
    "intersection_dim",
    "ug_generators",
    "rp_reference",
    "grid_points",
    "grid_rows",
    "GModule",
    "LoewySeries",
    "specht_module",
    "irreducible_D",
    "basic_spin_restriction",
    "loewy_length",
    "free_summand_count",
    "cyclic_profile",
    "tensor_module",
    "fingerprint",
    "verify_appendix",
    "SuiteConfig",
    "VerificationReport",
    "make_report",
    "run_suite",
    "__version__",
]
