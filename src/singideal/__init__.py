"""Vanishing tests, integer witnesses and norm checks for singular-ideal
analogues of finite groups with conjugation-invariant subgroup families,
together with the associated coset groupoids and their truncated
non-Hausdorff extensions.
"""

from .exact import (RationalMatrix, in_span, integerize, kernel_basis,
                    kernel_dim, rank, same_subspace, spans_full)
from .groupoid import (Arrow, FiniteGroupoid, GroupoidFunction,
                       build_coset_groupoid, convolve, delta, involution,
                       kernel_of_q_basis, kernel_of_q_dimension, q_map,
                       reduction_groupoid, restrict_function, unit_indicator)
from .groups import (Coset, FamilyNotInvariantError, FiniteGroup,
                     GroupTableError, SizeCapError, SubgroupFamily,
                     cayley_group, conjugation_closure, coset_index,
                     cosets_of_subgroup, cyclic, dihedral, direct_product,
                     distinct_cosets, element_orders, enumerate_subgroups,
                     left_coset,
                     make_family, make_group, minimal_subgroups,
                     normal_closure_subgroup, parse_family, quaternion_group,
                     restrict_family, subgroup_as_group, subgroup_generated,
                     symmetric_group)
from .hls import (NotAWitnessError, SingularCandidate, TruncatedHLS,
                  build_hls, essential_fiber, hls_report,
                  is_extremely_dangerous, limit_set,
                  singular_function_from_witness, verify_singular)
from .ideals import (GroupAlgebraElement, IdealReport,
                     InternalInconsistencyError, NotAbelianError,
                     abelian_AI_criterion, algebraic_ideal_kernel,
                     check_witness, class_I_check, coset_constraint_matrix,
                     full_ideal_kernel, integer_witness, property_AI,
                     quasi_regular_matrix, weak_containment_regular)
from .norms import (reduced_norm, regular_rep_matrix, spectral_norm,
                    verify_norm_equation)

__version__ = "0.1.0"
