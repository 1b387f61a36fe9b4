"""Contexts, spectral presheaves and contextual truth values.

A small library for studying quantum systems of dimension 2 to 16 through
the topos of presheaves over their poset of commutative subalgebras:
contexts as partitions of unity, the spectral presheaf, inner and outer
daseinisation, Heyting-valued truth, and exhaustive searches for global
sections.
"""

from . import contexts, errors, kernel, numerics, props, quantum, scenario
from .contexts import (
    Context,
    ContextPoset,
    build_poset,
    builtin_scenario,
    context_from_commuting_set,
    context_intersection,
    context_leq,
    contexts_equal,
    make_context,
)
from .numerics import (
    Tolerance,
    apply_function,
    eigensystem,
    is_projector,
    proj_leq,
)
from .quantum import (
    KsResult,
    PseudoState,
    SpectralElement,
    SpectralPresheaf,
    TruthAssignment,
    TruthObject,
    daseinise,
    daseinise_observable,
    daseinise_projector,
    daseinise_projector_inner,
    delta_subobject,
    evaluate,
    ks_search,
    pseudo_state,
    spectral_presheaf,
    truth_object,
    truth_value_pseudo,
    truth_value_truthobject,
    value_interval,
)

__version__ = "0.1.0"

__all__ = [
    "Context",
    "ContextPoset",
    "KsResult",
    "PseudoState",
    "SpectralElement",
    "SpectralPresheaf",
    "Tolerance",
    "TruthAssignment",
    "TruthObject",
    "apply_function",
    "build_poset",
    "builtin_scenario",
    "context_from_commuting_set",
    "context_intersection",
    "context_leq",
    "contexts",
    "contexts_equal",
    "daseinise",
    "daseinise_observable",
    "daseinise_projector",
    "daseinise_projector_inner",
    "delta_subobject",
    "eigensystem",
    "errors",
    "evaluate",
    "is_projector",
    "kernel",
    "ks_search",
    "make_context",
    "numerics",
    "proj_leq",
    "props",
    "pseudo_state",
    "quantum",
    "scenario",
    "spectral_presheaf",
    "truth_object",
    "truth_value_pseudo",
    "truth_value_truthobject",
    "value_interval",
]
