"""Cross-reference labels for the order-8 and order-12 classification tables.

Each label Q{n}_{k} names one (group, automorphism) construction in the
standard published enumeration of these quandles; several labels can land in
the same quandle isomorphism class.  The expected partitions below record
which labels coincide as quandles and are used by the verification suite.
"""

from __future__ import annotations

from functools import lru_cache

from .catalog import build_named, named_automorphism
from .groups import automorphism_classes

ORDER8_LABELS: dict[str, tuple[str, str]] = {
    "Q8_1": ("C4xC2", "id"),
    "Q8_2": ("C4xC2", "psi_sigma"),
    "Q8_3": ("C4xC2", "psi_sigma^2"),
    "Q8_4": ("C4xC2", "psi_tau"),
    "Q8_5": ("C4xC2", "psi_sigma*psi_tau"),
    "Q8_6": ("C2xC2xC2", "mat:1,0,0;0,1,0;0,0,1"),
    "Q8_7": ("C2xC2xC2", "mat:1,0,0;0,0,1;0,1,0"),
    "Q8_8": ("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,0"),
    "Q8_9": ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,1"),
    "Q8_10": ("C2xC2xC2", "mat:0,0,1;1,0,0;0,1,1"),
    "Q8_11": ("C2xC2xC2", "mat:0,0,1;1,0,1;0,1,0"),
    "Q8_12": ("D4", "phi:1,0"),
    "Q8_13": ("D4", "phi:3,1"),
    "Q8_14": ("D4", "phi:1,2"),
    "Q8_14b": ("D4", "phi:3,2"),
    "Q8_15": ("D4", "phi:1,1"),
    "Q8_16": ("Q8", "psi_1"),
    "Q8_17": ("Q8", "psi_2"),
    "Q8_18": ("Q8", "psi_3"),
    "Q8_19": ("Q8", "psi_4"),
    "Q8_20": ("Q8", "psi_5"),
}

ORDER12_LABELS: dict[str, tuple[str, str]] = {
    "Q12_1": ("C6xC2", "id"),
    "Q12_2": ("C6xC2", "alpha_tau"),
    "Q12_3": ("C6xC2", "alpha_sigma^3"),
    "Q12_4": ("C6xC2", "alpha_tau*alpha_sigma"),
    "Q12_5": ("C6xC2", "alpha_sigma^2"),
    "Q12_6": ("C6xC2", "alpha_sigma"),
    "Q12_7": ("D6", "phi:1,0"),
    "Q12_8": ("D6", "phi:5,1"),
    "Q12_9": ("D6", "phi:5,2"),
    "Q12_10": ("D6", "phi:1,3"),
    "Q12_11": ("D6", "phi:1,2"),
    "Q12_12": ("D6", "phi:1,1"),
    "Q12_13": ("Dic3", "id"),
    "Q12_14": ("Dic3", "beta_tau*beta_sigma"),
    "Q12_15": ("Dic3", "beta_tau"),
    "Q12_16": ("Dic3", "beta_sigma^3"),
    "Q12_17": ("Dic3", "beta_sigma^2"),
    "Q12_18": ("Dic3", "beta_sigma"),
    "Q12_19": ("A4", "id"),
    "Q12_20": ("A4", "conj_perm:(1 2)"),
    "Q12_21": ("A4", "conj_perm:(1 2)(3 4)"),
    "Q12_22": ("A4", "conj_perm:(1 2 3)"),
    "Q12_23": ("A4", "conj_perm:(1 2 3 4)"),
}

ALL_LABELS = {**ORDER8_LABELS, **ORDER12_LABELS}

# quandle isomorphism classes among the labelled constructions
EXPECTED_ORDER8_PARTITION: tuple[frozenset[str], ...] = tuple(map(frozenset, (
    {"Q8_1", "Q8_6", "Q8_12", "Q8_16"},
    {"Q8_13", "Q8_18"},
    {"Q8_3", "Q8_4", "Q8_5", "Q8_7", "Q8_14", "Q8_14b", "Q8_17"},
    {"Q8_2", "Q8_9"},
    {"Q8_15", "Q8_20"},
    {"Q8_8"},
    {"Q8_10"},
    {"Q8_11"},
    {"Q8_19"},
)))

EXPECTED_ORDER12_PARTITION: tuple[frozenset[str], ...] = tuple(map(frozenset, (
    {"Q12_1", "Q12_7", "Q12_13", "Q12_19"},
    {"Q12_2", "Q12_8", "Q12_14"},
    {"Q12_20"},
    {"Q12_3", "Q12_9", "Q12_15"},
    {"Q12_21"},
    {"Q12_4", "Q12_10", "Q12_16"},
    {"Q12_5", "Q12_22"},
    {"Q12_11", "Q12_17"},
    {"Q12_23"},
    {"Q12_6"},
    {"Q12_12", "Q12_18"},
)))

# isomorphisms displayed one by one in the source tables (subset of the above)
DISPLAYED_MERGES_ORDER8 = (
    ("Q8_1", "Q8_6"), ("Q8_6", "Q8_12"), ("Q8_12", "Q8_16"),
    ("Q8_13", "Q8_18"),
    ("Q8_3", "Q8_4"), ("Q8_4", "Q8_5"), ("Q8_5", "Q8_7"),
    ("Q8_7", "Q8_14"), ("Q8_14", "Q8_17"), ("Q8_14", "Q8_14b"),
    ("Q8_2", "Q8_9"),
    ("Q8_15", "Q8_20"),
)

DISPLAYED_MERGES_ORDER12 = (
    ("Q12_1", "Q12_7"), ("Q12_7", "Q12_13"), ("Q12_13", "Q12_19"),
    ("Q12_2", "Q12_8"), ("Q12_8", "Q12_14"),
    ("Q12_3", "Q12_9"), ("Q12_9", "Q12_15"),
    ("Q12_4", "Q12_10"), ("Q12_10", "Q12_16"),
    ("Q12_5", "Q12_22"),
)


@lru_cache(maxsize=None)
def resolve_label(label: str):
    """(group, automorphism map) for a reference label."""
    group_name, aut_name = ALL_LABELS[label]
    g = build_named(group_name)
    return g, named_automorphism(g, aut_name)


def label_class_images(label: str) -> tuple[str, tuple[int, ...]]:
    """(group name, canonical conjugacy-class representative) for a label."""
    g, psi = resolve_label(label)
    return ALL_LABELS[label][0], automorphism_classes(g)[psi.images]


@lru_cache(maxsize=None)
def _label_index(order: int) -> dict[tuple[str, tuple[int, ...]], list[str]]:
    """label_class_images(label) -> the labels of the order with it, in table order."""
    index: dict[tuple[str, tuple[int, ...]], list[str]] = {}
    for label in ORDER8_LABELS if order == 8 else ORDER12_LABELS if order == 12 else ():
        index.setdefault(label_class_images(label), []).append(label)
    return index


def labels_for_pair(order: int, group_name: str, class_images: tuple[int, ...]) -> list[str]:
    return list(_label_index(order).get((group_name, class_images), ()))
