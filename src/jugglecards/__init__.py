"""Juggling card sequences: simulation, counting, bijections, random walks.

The names below live in the submodules and load on first use (PEP 562),
so a program that reads only ``jugglecards.narayana`` imports
``jugglecards.counting`` and nothing else.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cards": (
        "Card", "CardSequence", "MultiplexError", "apply_card",
        "arrangement_history", "backward_step",
        "backward_step_order_preserving", "card_crossings",
        "card_permutation", "compose", "crossings", "cycle_count",
        "cycle_string", "cycles", "final_arrangement", "identity_perm",
        "increasing_suffix_length", "inverse", "inversions", "is_identity",
        "is_primitive", "parse_card", "parse_sequence", "reduced_pattern",
        "sequence_of", "sequence_permutation", "single_throw",
        "single_throws", "siteswap_of", "throw_pattern", "uses_top_throw",
        "verify_siteswap",
    ),
    "bijections": (
        "CoverMatrix", "LabeledDigraph", "canonical_pattern",
        "canonicalize_family", "compose_plus_two", "cover_canonical_order",
        "cover_partial_order", "cover_to_multigraph", "cover_to_sequence",
        "decompose_plus_two", "digraph_to_family", "dyck_peaks",
        "dyck_to_minimal", "dyck_to_pattern", "family_to_digraph",
        "family_to_sequence", "is_minimal", "is_noncrossing",
        "minimal_to_dyck", "multigraph_to_cover", "partition_to_sequence",
        "sequence_from_pattern", "sequence_to_cover", "sequence_to_family",
        "sequence_to_partition",
    ),
    "counting": (
        "binomial", "convolved_pair_identity", "count_suffix_at_least",
        "falling_factorial", "falling_factorial_identity",
        "functional_equation_residual", "gen_stirling",
        "gen_stirling_explicit", "js_count", "minimal_count_table",
        "multinomial_identity", "narayana", "p0", "p2", "p4",
        "plus_two_count", "q_from_p", "stirling1", "stirling2",
    ),
    "enumeration": (
        "CensusQuery", "all_sequences", "brute_js", "census",
        "census_rows", "count_by_permutation", "cycle_census",
        "enumerate_2covers", "enumerate_dyck_words",
        "enumerate_labeled_digraphs", "enumerate_minimal",
        "enumerate_noncrossing_partitions", "enumerate_plus",
        "enumerate_plus_two", "enumerate_set_partitions",
        "throw_cards",
    ),
    "rng": ("RandomStream",),
    "stochastic": (
        "GeneratorDistribution", "GroupDistribution", "card_distribution",
        "cycle_count_distribution", "cycle_type_limit",
        "estimate_single_cycle_probability", "exact_step_distribution",
        "point_distribution", "sample_sequence", "single_cycle_mass",
        "step_distribution", "total_variation", "uniform_distribution",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the name here."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
