"""Toolkit for absolutely avoidable order-size pairs of induced subgraphs:
exact integer criteria with constructive certificates, witness graphs,
brute-force arrowing oracles at small scale, and the bipartite
biclique-plus-forest construction showing the method's bipartite limit.

The names below resolve on first use (PEP 562): ``import avoidpairs`` runs
no submodule, and ``from avoidpairs import PairMF`` runs only ``criterion``
and what it imports.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "bipartite": (
        "BicliqueForestDecomp", "BipartitePair", "BipartiteVerdict",
        "bipartite_realize", "verify_bipartite_decomp",
    ),
    "criterion": (
        "AvoidabilityCert", "CertRejection", "CliqueForestCert", "CriterionEval",
        "Impossible", "PairMF", "Realizable", "avoidability_certificate",
        "clique_forest_realizable", "eval_criterion", "lr_from_f", "lr_values",
        "scan_interval", "scan_mod23", "scan_affine_q", "scan_offset_disjunction",
        "xcheck_lr_equivalence",
    ),
    "equidist": ("EquidistReport", "diag_equidist"),
    "errors": ("DomainError", "GuardError", "ScanAssertionError"),
    "exactarith": ("FixedPointFrac", "binom2", "frac_sqrt_half", "isqrt", "surd_floor"),
    "graphs": ("Graph", "from_graph6", "girth", "to_graph6"),
    "oracle": (
        "ArrowReport", "ArrowVerdict", "arrows", "arrows_pair",
        "clique_forest_oracle", "compute_S_n", "enumerate_graphs",
    ),
    "pell": (
        "PellState", "generate_M", "is_in_M", "m_states", "pell_initial",
        "pell_next", "pell_states", "verify_pell_state",
    ),
    "witness": (
        "Infeasible", "WitnessGraph", "WitnessVerdict", "build_witness",
        "build_witness_or_complement", "exhaustive_arrow_check", "verify_witness",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
