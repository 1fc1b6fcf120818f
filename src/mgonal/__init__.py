"""Sums of generalized m-gonal numbers: escalator trees, shifted-lattice
representation counts, and exact p-adic local densities.

Each exported name, and each module in the table below, is imported when it
is first used, so `import mgonal` (and each CLI command) loads only the
modules it needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "constructions": (
        "GuyForm", "GuyReport", "guy_form", "guy_report_csv", "lower_bound_witness",
        "verify_guy", "verify_guy_grid",
    ),
    "errors": (
        "InternalConsistencyError", "ResourceCapError", "TreeParseError", "WrongDispatchError",
    ),
    "escalator": (
        "EscalatorNode", "EscalatorTree", "build_tree", "deserialize_tree", "serialize_tree",
        "walk_summary",
    ),
    "lattice": (
        "ShiftedDiagonalLattice", "admissible", "h_of_ell", "lattice_from_form",
        "representation_count", "represents_equivalence_check", "shift_fraction",
    ),
    "localdensity": (
        "ConformanceRow", "Density", "JordanDecomposition", "classify_universality_pattern",
        "conformance_csv", "density_p_dividing_N", "jordan_decompose", "local_density",
        "siegel_count_density", "stabilization_threshold", "tau_gauss_sum", "tau_lemma_value",
        "verify_case_bounds", "yang_density_odd", "yang_density_two",
    ),
    "polygonal": (
        "PolygonalForm", "RepresentationSet", "extend_set", "polygonal_value",
        "polygonal_values_up_to", "represented_set", "truant",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:  # `mgonal.lattice` after a bare `import mgonal`
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
