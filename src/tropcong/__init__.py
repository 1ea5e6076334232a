"""tropcong: exact congruence computations on tropical polynomial semirings.

Polynomials and their evaluation live in trop_core; exact rational
polyhedral geometry in polyhedra; strata and closure witnesses in toric_geom;
matrix-defined primes, derivations and radical certificates in congruence;
supports of congruence varieties in variety; boundary-prime resolution and
the cancellativity harness in resolve.  jsonio and cli cover the wire formats.

The package namespace is lazy (PEP 562): `import tropcong` loads no
submodule, and each name below loads its module on first use, so a CLI job
compiles only the layers its subcommand reaches.
"""

import importlib

_EXPORTS = {
    "trop_core": ("COEFF_B", "COEFF_T", "ContextMismatchError", "ExtPoint", "Face",
                  "ToricContext", "TropPoly", "ZeroPolynomialError", "bend_relations",
                  "parse_poly"),
    "polyhedra": ("ConeH", "CoverBudgetExceeded", "EmptyPolyhedronError", "Fan",
                  "FlagOfCones", "HRow", "PolyhedronH", "common_refinement",
                  "covers_equal", "feasible", "hrep_from_rays", "is_empty", "make_flag",
                  "recession_cone", "relative_interior_point", "validate_flag"),
    "toric_geom": ("ClosureWitness", "NotInClosure", "closure_on_stratum",
                   "cone_closure_witnesses", "polyhedron_closure_membership"),
    "congruence": ("AddBoth", "CongruencePresentation", "Derivation", "Generator",
                   "MulMono", "NotFound", "PrimeMatrix", "RadicalCertificate", "Refl",
                   "SearchBounds", "Sym", "Trans", "congruence_in_prime",
                   "flag_to_matrix", "has_trivial_ideal_kernel", "initial_form_point",
                   "initial_form_prime", "prime_contains_pair", "prime_eval",
                   "search_radical_certificate", "verify_derivation",
                   "verify_radical_certificate"),
    "variety": ("VarietySupport", "flag_in_variety", "support_of",
                "functions_equal_on_variety", "hypersurface", "intersect_supports",
                "pair_variety", "point_in_variety", "radical_member", "shrink_flag",
                "slice_at_height", "variety_of_basis"),
    "resolve": ("CancellativityReport", "ResolutionResult", "ResolveFailure",
                "cancellativity_harness", "resolve_boundary_prime"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
