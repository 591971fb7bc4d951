"""Ratio invariants of distance and inner-product class systems.

Each setting, one row of bounds.SETTING_TABLE, maps the class values of an
s-distance structure to ratios k_i that the integrality theorems force to be
bounded integers once the point set is large enough. Every ratio is one
Lagrange basis value L_i(x) = prod_{j != i} (x - v_j) / (v_i - v_j) on the
class values (fewdist.lagrange):

- euclidean: k_i = L_i(0) on the squared distances;
- spherical: k_i = L_i(1) on the inner products;
- antipodal: k_i = L_i(1) on the squared |beta| values, divided by beta_i
  for variant 2, whose even case skips the zero class.

The analyze entry point profiles a point set, picks the applicable settings,
and reports integrality per setting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isfinite

from .bounds import FAMILIES, SETTING_TABLE, TheoremContext, setting_row, theorem_context
from .defaults import DEFAULT_TOL_INT
from .errors import (
    DegenerateValuesError,
    InputError,
    NotAntipodalError,
    NotOnSphereError,
    ParameterError,
    _valid_tol,
)
from .lagrange import lagrange_weights
from .pointset import (
    DEFAULT_TOL,
    DEFAULT_TOL_RANK,
    PointSet,
    affine_dimension,
    antipodal_structure,
    distance_profile,
    inner_product_profile,
    linear_dimension,
    on_unit_sphere,
)


def _check_strictly_increasing(values, what: str) -> list[float]:
    vals = [float(v) for v in values]
    if len(vals) < 1:
        raise ParameterError(f"{what}: need at least one value")
    for a, b in zip(vals, vals[1:]):
        if (b - a) <= 1e-12 * max(1.0, abs(a), abs(b)):
            raise DegenerateValuesError(f"{what}: values {a!r} and {b!r} coincide within 1e-12")
    return vals


def _lagrange_ratios(setting: str, vals: list[float]) -> list[float]:
    row = SETTING_TABLE[setting]
    k = lagrange_weights(row.nodes(vals), row.at).tolist()
    if row.signed:
        return [w / b for w, b in zip(k, vals[row.first_index - 1 :])]
    return k


def euclidean_ratios(squared_distances) -> list[float]:
    """k_i = prod_{j != i} a_j / (a_j - a_i) over squared distances a_1 < ... < a_s."""
    vals = _check_strictly_increasing(squared_distances, "squared distances")
    if vals[0] <= 0.0:
        raise ParameterError("squared distances must be positive")
    return _lagrange_ratios("euclidean", vals)


def spherical_ratios(inner_products) -> list[float]:
    """k_i = prod_{j != i} (1 - b_j) / (b_i - b_j) over inner products b_1 < ... < b_s < 1."""
    vals = _check_strictly_increasing(inner_products, "inner products")
    if vals[-1] >= 1.0:
        raise ParameterError("inner products must be below 1")
    return _lagrange_ratios("spherical", vals)


def antipodal_odd_ratios(beta_abs, variant: int) -> list[float]:
    """Ratio family over the positive |beta| classes of an antipodal set, s odd.

    variant 1: k_i = prod_{j != i} (1 - b_j^2) / (b_i^2 - b_j^2)
    variant 2: the same product with an extra 1 / b_i factor.
    """
    if variant not in (1, 2):
        raise ParameterError(f"variant must be 1 or 2, got {variant}")
    vals = _check_strictly_increasing(beta_abs, "|beta| values")
    if vals[0] <= 0.0 or vals[-1] >= 1.0:
        raise ParameterError("odd-case |beta| values must lie strictly in (0, 1)")
    return _lagrange_ratios(f"antipodal_odd_v{int(variant)}", vals)


def antipodal_even_ratios(beta_abs, variant: int) -> list[float]:
    """Ratio family over the |beta| classes of an antipodal set, s even.

    beta_abs must start with the zero class (exactly 0.0). variant 1 runs over
    all classes including 0; variant 2 skips the zero class and carries the
    1 / b_i prefactor, so it returns one fewer value.
    """
    if variant not in (1, 2):
        raise ParameterError(f"variant must be 1 or 2, got {variant}")
    vals = [float(v) for v in beta_abs]
    if not vals or vals[0] != 0.0:
        raise ParameterError("even-case |beta| values must start with the zero class (0.0)")
    _check_strictly_increasing(vals, "|beta| values")
    if vals[-1] >= 1.0:
        raise ParameterError("|beta| values must lie below 1")
    return _lagrange_ratios(f"antipodal_even_v{int(variant)}", vals)


def class_ratios(ps: PointSet, setting: str, tol: float = DEFAULT_TOL):
    """(class values, s, ratios k) of ps in the setting's family. The
    antipodal rows read |beta| and refuse a set of the other parity."""
    row = setting_row(setting)
    if row.family == "euclidean":
        dp = distance_profile(ps, tol)
        return dp.squared_distances, dp.s, euclidean_ratios(dp.squared_distances)
    if row.family == "spherical":
        ipp = inner_product_profile(ps, tol)
        return ipp.inner_products, ipp.s, spherical_ratios(ipp.inner_products)
    structure = antipodal_structure(ps, tol)
    if structure.parity != row.parity:
        raise ParameterError(f"set has {structure.parity} parity, requested {setting}")
    ratios = antipodal_odd_ratios if row.parity == "odd" else antipodal_even_ratios
    return structure.beta_abs, structure.s, ratios(structure.beta_abs, 2 if row.signed else 1)


def effective_dimension(ps: PointSet, setting: str, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """The affine dimension for the euclidean family, the linear one otherwise."""
    euclidean = setting_row(setting).family == "euclidean"
    d = (affine_dimension if euclidean else linear_dimension)(ps, tol_rank)
    if d < 1:
        raise ParameterError(
            f"effective dimension {d} at rank tolerance {tol_rank:g} (--tol-rank): "
            "the tolerance is too large for this set"
        )
    return d


def applicable_settings(
    ps: PointSet, tol: float = DEFAULT_TOL, tol_rank: float = DEFAULT_TOL_RANK, d_override=None
) -> list[str]:
    """The settings ps supports, most generic first: euclidean always,
    spherical for unit norms, and both antipodal rows of the set's parity when
    it has the antipodal class structure and s is in range. Other
    classification errors, such as several inner product classes at 0, raise.
    """
    settings = ["euclidean"]
    if not on_unit_sphere(ps, tol):
        return settings
    settings.append("spherical")
    # Outside the try: a ParameterError for tol_rank must not be taken for an s out of range.
    d = d_override if d_override is not None else linear_dimension(ps, tol_rank)
    try:
        structure = antipodal_structure(ps, tol)
        rows = [r.name for r in SETTING_TABLE.values() if r.parity == structure.parity]
        theorem_context(rows[0], d, structure.s)
        settings.extend(rows)
    except (NotAntipodalError, ParameterError):
        pass
    return settings


def choose_settings(applicable: list[str], requested: str = "auto") -> list[str]:
    """The applicable settings of the requested family: "auto" picks the most
    specific family, "all" keeps every setting."""
    if requested == "all":
        return applicable
    families = [SETTING_TABLE[name].family for name in applicable]
    family = families[-1] if requested == "auto" else requested
    if family not in families:
        if family == "spherical":
            raise NotOnSphereError("points are not unit-norm; spherical setting unavailable")
        raise NotAntipodalError("set lacks the antipodal class structure (or s is too small)")
    return [name for name, f in zip(applicable, families) if f == family]


def rational_inner_products(
    v1_ratios, v2_ratios, parity: str, tol_int: float = DEFAULT_TOL_INT
) -> list[Fraction]:
    """Exact rational |beta| values from the two integer ratio families.

    For s odd the families share an index range and b_i = v1_i / v2_i; for
    s even the variant-1 list has a leading zero-class entry to skip and
    b_i = v2_i / v1_i. Inputs must round to nonzero integers within tol_int.
    """
    if parity == "odd":
        if len(v1_ratios) != len(v2_ratios):
            raise InputError("odd parity needs equally long ratio lists")
        pairs = [(v1, v2) for v1, v2 in zip(v1_ratios, v2_ratios)]
    elif parity == "even":
        if len(v1_ratios) != len(v2_ratios) + 1:
            raise InputError("even parity needs one more variant-1 ratio (the zero class)")
        pairs = [(v2, v1) for v1, v2 in zip(v1_ratios[1:], v2_ratios)]
    else:
        raise ParameterError(f"parity must be 'odd' or 'even', got {parity!r}")
    _valid_tol("tol_int", tol_int)
    out = []
    for num, den in pairs:
        if not (isfinite(num) and isfinite(den)):
            raise InputError(f"ratios ({num!r}, {den!r}) must be finite")
        n_int, d_int = round(num), round(den)
        if abs(num - n_int) > tol_int or abs(den - d_int) > tol_int:
            raise InputError(
                f"ratios ({num!r}, {den!r}) are not integers within tol_int={tol_int}"
            )
        if d_int == 0 or n_int == 0:
            raise DegenerateValuesError("a rounded ratio is zero; rational value undefined")
        out.append(Fraction(n_int, d_int))
    return out


@dataclass(frozen=True)
class RatioReport:
    """Integrality report for one ratio family on one point set."""

    setting: str
    context: TheoremContext
    n: int
    class_indices: tuple[int, ...]
    k_values: tuple[float, ...]
    rounded_k: tuple[int, ...]
    integrality_dev: tuple[float, ...]
    integrality: tuple[bool, ...]
    within_bound: tuple[bool, ...]
    hypothesis_met: bool
    tol_int: float
    k_sum: float | None = None

    @property
    def all_integral(self) -> bool:
        return all(self.integrality)

    @property
    def all_within_bound(self) -> bool:
        return all(self.within_bound)

    def to_dict(self) -> dict:
        out = {
            "setting": self.setting,
            "context": self.context.to_dict(),
            "n": self.n,
            "class_indices": list(self.class_indices),
            "k_values": [float(k) for k in self.k_values],
            "rounded_k": list(self.rounded_k),
            "integrality_dev": [float(x) for x in self.integrality_dev],
            "integrality": list(self.integrality),
            "within_bound": list(self.within_bound),
            "all_integral": self.all_integral,
            "all_within_bound": self.all_within_bound,
            "hypothesis_met": self.hypothesis_met,
            "tol_int": self.tol_int,
        }
        if self.k_sum is not None:
            out["k_sum"] = float(self.k_sum)
        return out


def _make_report(setting, context, n, indices, k_values, tol_int, with_sum=False) -> RatioReport:
    _valid_tol("tol_int", tol_int)
    rounded = tuple(int(round(k)) for k in k_values)
    dev = tuple(abs(k - r) for k, r in zip(k_values, rounded))
    return RatioReport(
        setting=setting,
        context=context,
        n=n,
        class_indices=tuple(indices),
        k_values=tuple(float(k) for k in k_values),
        rounded_k=rounded,
        integrality_dev=dev,
        integrality=tuple(d <= tol_int for d in dev),
        within_bound=tuple(abs(r) <= context.ratio_bound for r in rounded),
        hypothesis_met=n >= context.cardinality_threshold,
        tol_int=tol_int,
        k_sum=float(sum(k_values)) if with_sum else None,
    )


@dataclass(frozen=True)
class AnalysisReport:
    """Everything analyze() learned about one point set."""

    n: int
    ambient_dimension: int
    s: int
    squared_distances: tuple[float, ...]
    settings_applicable: tuple[str, ...]
    selected: str
    reports: tuple[RatioReport, ...]
    rational: dict | None = None

    def to_dict(self) -> dict:
        out = {
            "n": self.n,
            "ambient_dimension": self.ambient_dimension,
            "s": self.s,
            "squared_distances": [float(v) for v in self.squared_distances],
            "settings_applicable": list(self.settings_applicable),
            "selected": self.selected,
            "reports": [r.to_dict() for r in self.reports],
        }
        rational = self.rational
        if rational is not None:  # its values are Fractions, written as "p/q"
            rational = {**rational, "values": [f"{v.numerator}/{v.denominator}" for v in rational["values"]]}
        out["rational_inner_products"] = rational
        return out


def _rational_block(rep1: RatioReport, rep2: RatioReport, parity: str, d_eff: int, s: int, tol_int):
    applicable = (
        rep1.hypothesis_met and rep2.hypothesis_met and rep1.all_integral and rep2.all_integral
    )
    block = {
        "applicable": applicable,
        "parity": parity,
        # Sufficient cardinality quoted for the combined statement; the two
        # per-variant thresholds above are what gate `applicable`.
        "blanket_threshold": 4 * comb(d_eff + s - 3, s - 2) + 2,
        "indices": list(rep2.class_indices),
        "values": [],
    }
    if applicable:
        block["values"] = rational_inner_products(
            list(rep1.k_values), list(rep2.k_values), parity, tol_int
        )
    return block


def analyze(
    ps: PointSet,
    setting: str = "auto",
    all_settings: bool = False,
    tol: float = DEFAULT_TOL,
    tol_int: float = DEFAULT_TOL_INT,
    tol_rank: float = DEFAULT_TOL_RANK,
    d_override: int | None = None,
) -> AnalysisReport:
    """Profile a point set and report ratio integrality for applicable settings.

    `setting` picks one family, "auto" the most specific applicable one
    (applicable_settings, choose_settings); `all_settings` reports every
    applicable setting.
    """
    if setting not in ("auto", *FAMILIES):
        raise ParameterError(f"unknown setting {setting!r}")
    dp = distance_profile(ps, tol)
    applicable = applicable_settings(ps, tol, tol_rank, d_override)
    selected = choose_settings(applicable, setting)
    reports: list[RatioReport] = []
    rational = None
    for name in applicable if all_settings else selected:
        row = SETTING_TABLE[name]
        values, s, k = class_ratios(ps, name, tol)
        d = d_override if d_override is not None else effective_dimension(ps, name, tol_rank)
        context = theorem_context(name, d, s)
        with_sum = row.family != "antipodal"
        reports.append(_make_report(name, context, ps.n, row.indices(values), k, tol_int, with_sum))
        if row.signed:
            rational = _rational_block(reports[-2], reports[-1], row.parity, d, s, tol_int)

    return AnalysisReport(
        n=ps.n,
        ambient_dimension=ps.dimension,
        s=dp.s,
        squared_distances=dp.squared_distances,
        settings_applicable=tuple(dict.fromkeys(SETTING_TABLE[n].family for n in applicable)),
        selected=SETTING_TABLE[selected[0]].family,
        reports=tuple(reports),
        rational=rational,
    )
