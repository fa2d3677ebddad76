"""Right-angled Artin group smoothability via the cograph hierarchy, plus
exact piecewise-linear one-dimensional dynamics: supports, commutators,
rotation numbers, lamplighter certificates, and separating actions."""

from .cotree import Classification, Cotree, NotCograph, classify, decompose, hierarchy_level, reconstruct, witness
from .graphs import SimplicialGraph, disjoint_union, find_full_p3, find_full_p4, full_subgraph, join
from .plmaps import (
    PLMapCircle,
    PLMapInterval,
    RotationResult,
    commutator,
    compose,
    invert,
    power,
    rotation_number,
)
from .words import FreeProductWord, format_word, parse_word
from .actions import ActionAssignment, build_faithful_on, build_separating_action, evaluate_word

__all__ = [
    "ActionAssignment",
    "Classification",
    "Cotree",
    "FreeProductWord",
    "NotCograph",
    "PLMapCircle",
    "PLMapInterval",
    "RotationResult",
    "SimplicialGraph",
    "build_faithful_on",
    "build_separating_action",
    "classify",
    "commutator",
    "compose",
    "decompose",
    "disjoint_union",
    "evaluate_word",
    "find_full_p3",
    "find_full_p4",
    "format_word",
    "full_subgraph",
    "hierarchy_level",
    "invert",
    "join",
    "parse_word",
    "power",
    "reconstruct",
    "rotation_number",
    "witness",
]
