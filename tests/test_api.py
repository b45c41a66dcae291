import quandles

# the package's public names, its submodules among them; a change to the API
# shows up here as a diff
PUBLIC_API = [
    "CapacityError", "ClassificationReport", "ContractViolation", "DihedralAut",
    "FiniteGroup", "GroupMap", "GroupSpec", "InvariantProfile", "IsoVerdict",
    "NameLookupError", "Quandle", "StructuralError", "Subgroup",
    "VerificationError", "abelian_decider", "are_conjugate_dn",
    "automorphism_conjugacy_classes", "automorphism_group", "boundary_report",
    "brute_force_iso", "build", "build_named", "catalog", "center", "check_axioms",
    "check_theorem39_properties", "classify", "classify_group", "classify_order",
    "closed_form_counts", "compute_P", "compute_P2", "conjugacy_reps_aut_dn",
    "cyclic_iso_decider", "cyclic_to_dihedral", "decide", "dihedral",
    "dihedral_iso_decider", "emit_table", "errors", "fix_size_dn", "fixed_subgroup",
    "general_alexander", "generated_subgroup", "group_from_json", "group_to_json",
    "groups", "groups_isomorphic", "groups_of_order", "identity_map",
    "inn_structure", "inner_automorphism", "invariants", "is_connected",
    "is_normal", "is_simple", "iso", "labels", "named_automorphism",
    "normalize_witness", "p_subgroups_dn", "profile", "profile_to_json", "quandle",
    "quandle_from_json", "quandle_order", "quandle_to_json", "simple_group_decider",
    "spec_from_name", "subquandle", "theorem13_iso",
    "trivial_quandle", "twisted_normalizer",
    "verify_quandle_witness",
]


def test_public_api_is_pinned():
    assert sorted(quandles.__all__) == PUBLIC_API
