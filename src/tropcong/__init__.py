"""tropcong: exact congruence computations on tropical polynomial semirings.

Scalars, polynomials and evaluation live in trop_core; exact rational
polyhedral geometry in polyhedra; strata and closure witnesses in toric_geom;
matrix-defined primes, derivations and radical certificates in congruence;
supports of congruence varieties in variety; initial-form stability and
boundary-prime resolution in resolve.  jsonio and cli cover the wire formats.
"""

from .trop_core import (BOTTOM, TROP_ONE, COEFF_B, COEFF_T, ContextMismatchError,
                        ExtPoint, Face, ToricContext, TropPoly, TropScalar,
                        ZeroPolynomialError, bend_relations, eval_poly,
                        parse_poly)
from .polyhedra import (ConeH, CoverBudgetExceeded, EmptyPolyhedronError, Fan,
                        FlagOfCones, HRow, PolyhedronH, common_refinement,
                        covers_equal, feasible, hrep_from_rays, is_empty,
                        make_flag, rays_from_hrep, recession_cone,
                        relative_interior_point, validate_flag)
from .toric_geom import (ClosureWitness, NotInClosure, StratumPoint,
                         cone_closure_witnesses, polyhedron_closure_membership,
                         project_to_stratum)
from .congruence import (AddBoth, CongruencePresentation, Derivation, Generator,
                         MulMono, NotFound, PrimeMatrix, RadicalCertificate,
                         Refl, SearchBounds, Sym, Trans, congruence_in_prime,
                         flag_to_matrix, has_trivial_ideal_kernel,
                         ideal_kernel_face, initial_form_point,
                         initial_form_prime, prime_contains_pair, prime_eval,
                         search_radical_certificate, verify_derivation,
                         verify_radical_certificate)
from .variety import (VarietySupport, flag_in_variety, fractions_equal_on_variety,
                      support_of,
                      functions_equal_on_variety, hypersurface, intersect_supports,
                      pair_variety, point_in_variety, radical_member, shrink_flag,
                      slice_at_height, variety_of_basis)
from .resolve import (CancellativityReport, ResolutionResult, ResolveFailure,
                      cancellativity_harness, init_stability,
                      iterated_init_region, resolve_boundary_prime)

__version__ = "0.1.0"
