"""Generalized Alexander quandles over finite groups.

Construct Q(G, psi) for any finite group G (given as a Cayley table) and
automorphism psi, compute the invariant suite built around the identity
orbit P, decide quandle isomorphism by several independent routes, and
classify all such quandles for group orders up to 15 (16 as a boundary
case).
"""

from .catalog import (GroupSpec, build, build_named, groups_of_order,
                      named_automorphism, spec_from_name)
from .classify import (ClassificationReport, boundary_report, classify_group,
                       classify_order, closed_form_counts, emit_table)
from .dihedral import (DihedralAut, are_conjugate_dn, conjugacy_reps_aut_dn,
                       cyclic_iso_decider, cyclic_to_dihedral,
                       dihedral_iso_decider, fix_size_dn, p_subgroups_dn)
from .errors import (CapacityError, ContractViolation, NameLookupError,
                     StructuralError, VerificationError)
from .groups import (FiniteGroup, GroupMap, Subgroup, automorphism_conjugacy_classes,
                     automorphism_group, center, fixed_subgroup,
                     generated_subgroup, group_from_json, group_to_json,
                     groups_isomorphic, identity_map, inner_automorphism,
                     is_normal, is_simple)
from .invariants import (InvariantProfile, compute_P, compute_P2, inn_structure,
                         profile, profile_to_json, twisted_normalizer)
from .iso import (IsoVerdict, abelian_decider, brute_force_iso,
                  check_theorem39_properties, decide, normalize_witness,
                  simple_group_decider, theorem13_iso, verify_quandle_witness)
from .quandle import (Quandle, check_axioms, general_alexander, is_connected,
                      quandle_from_json, quandle_order, quandle_to_json,
                      subquandle, trivial_quandle)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
