"""Tools for few-distance point sets: ratio integrality certificates,
inversion of ratio tuples back to distance systems, and exhaustive catalogs
of admissible systems.

The names below are imported from their modules on first use (PEP 562), so
that a command loads only the modules it runs."""

import importlib

_EXPORTS = {
    "bounds": (
        "TheoremContext", "antipodal_ratio_bound", "cardinality_bound", "dim_poly_space",
        "ratio_bound_U", "theorem_context",
    ),
    "certificate": (
        "CertificateVerdict", "IndicatorMatrix", "SpectrumReport", "eigen_multiplicities",
        "indicator_matrix", "numeric_rank", "verify_key_lemma", "verify_key_lemmas",
        "verify_sign_matrix_bound",
    ),
    "embed": (
        "EmbeddingVerdict", "congruent", "double_center", "euclidean_embeddable",
        "spherical_embeddable",
    ),
    "errors": ("FewdistError", "InputError", "NumericalError"),
    "inverse": (
        "InversionResult", "forward_K", "forward_K_full", "invert_K", "invert_auto",
        "invert_s3_closed", "jacobian", "jacobian_det_closed",
    ),
    "pointset": (
        "AntipodalStructure", "DistanceProfile", "InnerProductProfile", "PointSet",
        "antipodal_structure", "construct_johnson", "construct_named", "distance_profile",
        "half_set", "inner_product_profile", "is_antipodal", "load_points",
    ),
    "ratios": (
        "AnalysisReport", "RatioReport", "analyze", "antipodal_even_ratios", "antipodal_odd_ratios",
        "euclidean_ratios", "rational_inner_products", "spherical_ratios",
    ),
    "search": ("CandidateCatalog", "catalog_report", "enumerate_tuples", "realize_catalog"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
