"""Exact computation of motivic Chern classes, twisted logarithmic-form
classes and their difference, for projective hyperplane arrangements with
free affine cone and for reduced curves on smooth surfaces, together with
the Todd/Hirzebruch pipeline that specialises them to CSM classes.

All arithmetic is exact (arbitrary-precision integers and rationals); all
values are immutable and all operations are pure functions, safe to call
from multiple threads.

``import logmc`` loads no submodule.  Each public name is imported from its
submodule on first access (PEP 562) and kept in this namespace, so a
program, the CLI included, loads only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "Arrangement", "BranchCountRequiredError", "CohClass", "CohPoly",
    "CurveDifferenceClass", "CurveSingularity", "DivisionRemainderError",
    "InconsistencyError", "IntPolynomial", "IntersectionLattice", "KClass", "KPoly",
    "LocalPolynomial", "LogmcError", "NonIsolatedSingularityError", "Subspace",
    "TeraoResult", "ValidationError", "arrangement", "branch_count", "build_lattice",
    "characteristic_polynomial", "chern_character", "chern_class_free_exponents",
    "clear_denominator", "cohclass_from_json", "cohclass_to_json", "cohpoly_from_json",
    "cohpoly_to_json", "csm_at_minus_one", "csm_minus_chern_curve", "curves",
    "delta_from_milnor", "difference_class_arrangement", "difference_class_curve",
    "errors", "euler_characteristic", "exact_div_one_plus_y", "exponents_via_terao",
    "genus_defect", "grr_transform", "hirzebruch", "kclass_O", "kclass_linear_subspace",
    "kpoly_from_json", "kpoly_to_json", "kring", "load_arrangement", "local_invariants",
    "log_class_free", "mc_complement_charpoly", "mc_complement_lattice_sum",
    "mc_free_exponents", "normalize", "omega_log_trivial", "parse_arrangement",
    "singularity_from_json", "singularity_from_poly", "todd_class",
]

# submodule -> the public names it defines; a submodule's own name is public too
_EXPORTS = {
    "arrangement": ("Arrangement", "IntersectionLattice", "IntPolynomial", "Subspace",
                    "TeraoResult", "build_lattice", "characteristic_polynomial",
                    "exponents_via_terao", "load_arrangement", "parse_arrangement"),
    "curves": ("CurveDifferenceClass", "CurveSingularity", "LocalPolynomial",
               "branch_count", "csm_minus_chern_curve", "delta_from_milnor",
               "difference_class_curve", "genus_defect", "local_invariants",
               "singularity_from_json", "singularity_from_poly"),
    "errors": ("BranchCountRequiredError", "DivisionRemainderError", "InconsistencyError",
               "LogmcError", "NonIsolatedSingularityError", "ValidationError"),
    "hirzebruch": ("CohClass", "CohPoly", "chern_character", "chern_class_free_exponents",
                   "clear_denominator", "cohclass_from_json", "cohclass_to_json",
                   "cohpoly_from_json", "cohpoly_to_json", "csm_at_minus_one",
                   "euler_characteristic", "grr_transform", "normalize", "todd_class"),
    "kring": ("KClass", "KPoly", "difference_class_arrangement", "exact_div_one_plus_y",
              "kclass_O", "kclass_linear_subspace", "kpoly_from_json", "kpoly_to_json",
              "log_class_free", "mc_complement_charpoly", "mc_complement_lattice_sum",
              "mc_free_exponents", "omega_log_trivial"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
