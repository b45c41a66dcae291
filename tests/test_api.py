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


# the operator protocols a class can offer besides its public names
PROTOCOLS = ("__call__", "__contains__", "__getitem__", "__iter__", "__len__")

# what each exported class offers: its public attributes, methods and
# dataclass fields, and the protocols it implements
CLASS_SURFACE = {
    "ClassificationReport": [
        "beyond_paper", "class_count", "classes", "complete", "engine_version",
        "group_names", "notes", "order", "pairs", "profiles", "to_json", "to_json_dict",
        "verdict_log"],
    "DihedralAut": ["a", "as_group_map", "b", "d", "g", "n"],
    "FiniteGroup": [
        "conj", "element_order", "element_order_multiset", "is_abelian", "name", "order",
        "spec", "table"],
    "GroupMap": [
        "check", "compose", "conjugate_by", "cycle_type", "images", "inverse",
        "is_bijective", "map_order", "require_automorphism", "source", "target"],
    "GroupSpec": ["kind", "name", "params"],
    "InvariantProfile": [
        "FIELDS", "fix_size", "group_order", "inn_size", "p1", "p2", "p2_iso_type",
        "p_fix_size", "p_iso_type", "psi_order", "psi_restricted_class",
        "separator_against", "tn_size", "to_json_dict"],
    "IsoVerdict": [
        "method", "note", "result", "separator", "to_json", "to_json_dict", "witness"],
    "Quandle": ["is_general_alexander", "provenance", "size", "sym"],
    "Subgroup": ["__contains__", "as_group", "member_set", "members", "order", "parent"],
}


def test_exported_classes_offer_exactly_their_pinned_names():
    for name, want in CLASS_SURFACE.items():
        cls = getattr(quandles, name)
        names = {*dir(cls), *getattr(cls, "__dataclass_fields__", ())}
        got = sorted(n for n in names if not n.startswith("_") or n in PROTOCOLS)
        assert got == want, name
