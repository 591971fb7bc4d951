"""Indicator matrices and the spectral certificate for ratio integrality.

For a class value with index i, the indicator polynomial evaluates to the
ratio k_i on the diagonal and to the class-i adjacency off it, so the matrix
M = (F_x(y)) decomposes as k*I + A. Because the polynomials span a space of
dimension at most N_cap, rank(M) <= N_cap, which pins the spectrum of A and
forces k to be a bounded integer once the set is large enough. These checks
are verified here numerically, with measured slacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import TheoremContext, dim_poly_space, theorem_context
from .errors import InputError, NumericalError, ParameterError
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
    squared_distance_matrix,
)
from .ratios import (
    antipodal_even_ratios,
    antipodal_odd_ratios,
    euclidean_ratios,
    spherical_ratios,
)

DEFAULT_CLUSTER_TOL = 1e-6

SIGNED_SETTINGS = ("antipodal_odd_v2", "antipodal_even_v2")


@dataclass(frozen=True)
class IndicatorMatrix:
    """M = k*I + A for one class index, with the claimed decomposition."""

    matrix: np.ndarray
    setting: str
    class_index: int
    k_claimed: float
    adjacency: np.ndarray
    max_decomposition_dev: float
    n_cap: int
    x_size: int
    d_eff: int
    s: int

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return (matrix + matrix.T) / 2.0


def _finish(matrix, setting, class_index, k, adjacency, n_cap, x_size, d_eff, s):
    n = matrix.shape[0]
    expected = adjacency.astype(float)
    expected[np.arange(n), np.arange(n)] += k
    dev = float(np.max(np.abs(matrix - expected)))
    return IndicatorMatrix(
        matrix=matrix,
        setting=setting,
        class_index=class_index,
        k_claimed=float(k),
        adjacency=adjacency,
        max_decomposition_dev=dev,
        n_cap=n_cap,
        x_size=x_size,
        d_eff=d_eff,
        s=s,
    )


def indicator_matrix(
    ps: PointSet,
    class_index: int,
    setting: str,
    tol: float = DEFAULT_TOL,
    tol_rank: float = DEFAULT_TOL_RANK,
) -> IndicatorMatrix:
    """Evaluate the class indicator polynomial at all point pairs.

    class_index is 1-based within the family's own index range: 1..s for
    euclidean/spherical, 1..(s-1)/2 for the odd antipodal variants, 1..s/2
    for the even variant 1 and 2..s/2 for the even variant 2 (the zero class
    has no variant-2 ratio).
    """
    if setting == "euclidean":
        return _euclidean_indicator(ps, class_index, tol, tol_rank)
    if setting == "spherical":
        return _spherical_indicator(ps, class_index, tol, tol_rank)
    if setting in (
        "antipodal_odd_v1",
        "antipodal_odd_v2",
        "antipodal_even_v1",
        "antipodal_even_v2",
    ):
        return _antipodal_indicator(ps, class_index, setting, tol, tol_rank)
    raise ParameterError(f"unknown setting {setting!r}")


def _check_index(class_index: int, low: int, high: int, setting: str) -> None:
    if not (low <= class_index <= high):
        raise ParameterError(
            f"class index {class_index} out of range [{low}, {high}] for {setting}"
        )


def _euclidean_indicator(ps, class_index, tol, tol_rank):
    dp = distance_profile(ps, tol)
    _check_index(class_index, 1, dp.s, "euclidean")
    i0 = class_index - 1
    vals = dp.squared_distances
    d2 = squared_distance_matrix(ps)
    matrix = np.ones_like(d2)
    for j, aj in enumerate(vals):
        if j != i0:
            matrix *= (aj - d2) / (aj - vals[i0])
    k = euclidean_ratios(vals)[i0]
    d_eff = affine_dimension(ps, tol_rank)
    n_cap = dim_poly_space("W_space", d_eff, dp.s - 1)
    adjacency = dp.adjacency[i0].astype(np.int8)
    return _finish(matrix, "euclidean", class_index, k, adjacency, n_cap, ps.n, d_eff, dp.s)


def _spherical_indicator(ps, class_index, tol, tol_rank):
    ipp = inner_product_profile(ps, tol)
    _check_index(class_index, 1, ipp.s, "spherical")
    i0 = class_index - 1
    vals = ipp.inner_products
    gram = _symmetrize(ps.points @ ps.points.T)
    matrix = np.ones_like(gram)
    for j, bj in enumerate(vals):
        if j != i0:
            matrix *= (gram - bj) / (vals[i0] - bj)
    k = spherical_ratios(vals)[i0]
    d_eff = linear_dimension(ps, tol_rank)
    n_cap = dim_poly_space("P_sphere", d_eff, ipp.s - 1)
    adjacency = ipp.adjacency[i0].astype(np.int8)
    return _finish(matrix, "spherical", class_index, k, adjacency, n_cap, ps.n, d_eff, ipp.s)


def _antipodal_indicator(ps, class_index, setting, tol, tol_rank):
    structure = antipodal_structure(ps, tol)
    s = structure.s
    parity = "odd" if setting.startswith("antipodal_odd") else "even"
    if parity != structure.parity:
        raise ParameterError(f"set has {structure.parity} parity, requested {setting}")
    variant = 2 if setting.endswith("v2") else 1
    beta = structure.beta_abs
    if parity == "odd":
        _check_index(class_index, 1, (s - 1) // 2, setting)
        degree = s - 3 if variant == 1 else s - 2
        k = antipodal_odd_ratios(beta, variant)[class_index - 1]
        skip_zero = False
    else:
        low = 1 if variant == 1 else 2
        _check_index(class_index, low, s // 2, setting)
        degree = s - 2 if variant == 1 else s - 3
        ratios = antipodal_even_ratios(beta, variant)
        k = ratios[class_index - 1] if variant == 1 else ratios[class_index - 2]
        skip_zero = variant == 2

    i0 = class_index - 1
    half = structure.half
    gram = _symmetrize(half.points @ half.points.T)
    gram2 = gram * gram
    bi = beta[i0]
    matrix = np.ones_like(gram)
    for j, bj in enumerate(beta):
        if j == i0 or (skip_zero and j == 0):
            continue
        matrix *= (gram2 - bj * bj) / (bi * bi - bj * bj)
    if variant == 2:
        matrix *= gram / bi

    # Class adjacency on the half set: nearest |beta| class per pair, signed
    # by the inner product's sign for the variant-2 matrices.
    dist_to_class = np.abs(np.abs(gram)[:, :, None] - np.asarray(beta)[None, None, :])
    nearest = np.argmin(dist_to_class, axis=2)
    adjacency = (nearest == i0).astype(np.int8)
    np.fill_diagonal(adjacency, 0)
    if variant == 2:
        adjacency = adjacency * np.sign(gram).astype(np.int8)

    d_eff = linear_dimension(ps, tol_rank)
    n_cap = dim_poly_space("P_star_sphere", d_eff, degree)
    return _finish(matrix, setting, class_index, k, adjacency, n_cap, ps.n, d_eff, s)


def numeric_rank(matrix, tol_rank: float = DEFAULT_TOL_RANK) -> int:
    """Count singular values above tol_rank * n * sigma_max."""
    if isinstance(matrix, IndicatorMatrix):
        rank = numeric_rank(matrix.matrix, tol_rank)
        if rank > matrix.n_cap:
            raise NumericalError(
                f"indicator matrix rank {rank} exceeds its space dimension {matrix.n_cap}"
            )
        return rank
    arr = np.asarray(matrix, dtype=float)
    try:
        sv = np.linalg.svd(arr, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol_rank * arr.shape[0] * sv[0]))


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues of a symmetric matrix grouped into clusters."""

    eigenvalues: tuple[float, ...]
    clusters: tuple[tuple[float, int], ...]
    zero_multiplicity: int
    rank: int
    cluster_tol_abs: float

    def to_dict(self) -> dict:
        return {
            "clusters": [[float(c), int(m)] for c, m in self.clusters],
            "zero_multiplicity": self.zero_multiplicity,
            "rank": self.rank,
        }


def eigen_multiplicities(matrix, cluster_tol: float = DEFAULT_CLUSTER_TOL) -> SpectrumReport:
    """Cluster the spectrum by gaps above cluster_tol * max|eigenvalue|."""
    arr = matrix.matrix if isinstance(matrix, IndicatorMatrix) else np.asarray(matrix, float)
    try:
        eig = np.linalg.eigvalsh(_symmetrize(arr))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    scale = float(np.max(np.abs(eig))) if eig.size else 0.0
    atol = cluster_tol * scale
    clusters = []
    start = 0
    for idx in range(1, eig.size + 1):
        if idx == eig.size or eig[idx] - eig[idx - 1] > atol:
            block = eig[start:idx]
            clusters.append((float(np.mean(block)), int(block.size)))
            start = idx
    zero_mult = int(np.count_nonzero(np.abs(eig) <= atol))
    return SpectrumReport(
        eigenvalues=tuple(float(x) for x in eig),
        clusters=tuple(clusters),
        zero_multiplicity=zero_mult,
        rank=eig.size - zero_mult,
        cluster_tol_abs=atol,
    )


def verify_sign_matrix_bound(matrix, e: float, m: int, entry_tol: float = 1e-9) -> dict:
    """Check e^2 <= (n-1)(n-m)/m for a symmetric 0/+-1 matrix with zero diagonal.

    e must be an eigenvalue of multiplicity at least m; the caller supplies
    both (typically from eigen_multiplicities).
    """
    arr = np.asarray(matrix, dtype=float)
    n = arr.shape[0]
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError("sign matrix must be square")
    if np.max(np.abs(arr - arr.T)) > entry_tol:
        raise InputError("sign matrix must be symmetric")
    if np.max(np.abs(np.diag(arr))) > entry_tol:
        raise InputError("sign matrix must have zero diagonal")
    off = arr[~np.eye(n, dtype=bool)]
    if off.size and np.max(np.abs(off - np.round(off))) > entry_tol:
        raise InputError("off-diagonal entries must be 0 or +-1")
    if off.size and np.max(np.abs(np.round(off))) > 1:
        raise InputError("off-diagonal entries must be 0 or +-1")
    if not (1 <= m <= n):
        raise ParameterError(f"multiplicity m must be in [1, n], got {m}")
    rhs = (n - 1) * (n - m) / m
    lhs = float(e) * float(e)
    return {
        "n": n,
        "e": float(e),
        "m": int(m),
        "lhs": lhs,
        "rhs": float(rhs),
        "ok": bool(lhs <= rhs * (1.0 + 1e-12) + 1e-9),
    }


@dataclass(frozen=True)
class CertificateVerdict:
    """Per-check booleans and measured slacks for one indicator matrix."""

    setting: str
    class_index: int
    n: int
    x_size: int
    context: TheoremContext
    hypothesis_met: bool
    decomposition_dev: float
    rank: int
    rank_cap: int
    rank_ok: bool
    zero_multiplicity: int
    zero_required: int
    zero_applicable: bool
    zero_ok: bool
    k_value: float
    k_rounded: int
    integrality_dev: float
    integral_ok: bool
    ratio_bound: int
    bound_ok: bool
    companion: dict
    all_passed: bool

    def to_dict(self) -> dict:
        return {
            "setting": self.setting,
            "class_index": self.class_index,
            "n": self.n,
            "x_size": self.x_size,
            "context": self.context.to_dict(),
            "hypothesis_met": self.hypothesis_met,
            "decomposition_dev": float(self.decomposition_dev),
            "rank": self.rank,
            "rank_cap": self.rank_cap,
            "rank_ok": self.rank_ok,
            "zero_multiplicity": self.zero_multiplicity,
            "zero_required": self.zero_required,
            "zero_applicable": self.zero_applicable,
            "zero_ok": self.zero_ok,
            "k_value": float(self.k_value),
            "k_rounded": self.k_rounded,
            "integrality_dev": float(self.integrality_dev),
            "integral_ok": self.integral_ok,
            "ratio_bound": self.ratio_bound,
            "bound_ok": self.bound_ok,
            "companion": self.companion,
            "all_passed": self.all_passed,
        }


def verify_key_lemma(
    im: IndicatorMatrix,
    context: TheoremContext | None = None,
    tol_int: float = 1e-6,
    tol_rank: float = DEFAULT_TOL_RANK,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> CertificateVerdict:
    """Run every certificate check on an indicator matrix.

    Checks: rank <= N_cap; zero-eigenvalue multiplicity >= N_cap when the
    matrix has at least 2*N_cap rows; the diagonal ratio is integral within
    tol_int and within the setting's bound; and the companion sign matrix
    (2M - J - (2k-1)I, or M - kI for the signed variants) carries its forced
    eigenvalue with multiplicity >= n - N_cap - 1 (resp. n - N_cap) and
    satisfies the 0/+-1 eigenvalue inequality.
    """
    if context is None:
        context = theorem_context(im.setting, im.d_eff, im.s)
    if context.setting != im.setting:
        raise ParameterError(
            f"context setting {context.setting!r} does not match matrix setting {im.setting!r}"
        )
    if context.N != im.n_cap:
        raise ParameterError(
            f"context N={context.N} does not match the matrix space dimension {im.n_cap}"
        )
    n = im.n
    k = im.k_claimed
    spectrum = eigen_multiplicities(im.matrix, cluster_tol)
    # im.matrix is exactly symmetric, so its singular values are the
    # |eigenvalues| and the numeric_rank threshold applies to them as is.
    magnitudes = np.abs(np.asarray(spectrum.eigenvalues))
    rank = int(np.count_nonzero(magnitudes > tol_rank * n * np.max(magnitudes)))
    zero_applicable = n >= 2 * im.n_cap
    zero_ok = (spectrum.zero_multiplicity >= im.n_cap) if zero_applicable else True

    k_rounded = int(round(k))
    integrality_dev = abs(k - k_rounded)
    integral_ok = integrality_dev <= tol_int
    bound_ok = abs(k_rounded) <= context.ratio_bound

    signed = im.setting in SIGNED_SETTINGS
    if signed:
        companion_matrix = im.matrix - k * np.eye(n)
        expected_e = -k
        required_mult = n - im.n_cap
        kind = "shifted_adjacency"
    else:
        companion_matrix = (
            2.0 * im.matrix - np.ones((n, n)) - (2.0 * k - 1.0) * np.eye(n)
        )
        expected_e = -(2.0 * k - 1.0)
        required_mult = n - im.n_cap - 1
        kind = "seidel"
    comp_spectrum = eigen_multiplicities(companion_matrix, cluster_tol)
    eig = np.asarray(comp_spectrum.eigenvalues)
    atol = cluster_tol * max(1.0, float(np.max(np.abs(eig))) if eig.size else 0.0)
    measured_mult = int(np.count_nonzero(np.abs(eig - expected_e) <= atol))
    mult_applicable = required_mult >= 1
    mult_ok = (measured_mult >= required_mult) if mult_applicable else True

    companion = {
        "kind": kind,
        "expected_eigenvalue": float(expected_e),
        "required_multiplicity": int(max(required_mult, 0)),
        "measured_multiplicity": measured_mult,
        "multiplicity_applicable": mult_applicable,
        "multiplicity_ok": mult_ok,
    }
    if measured_mult >= 1:
        try:
            bound = verify_sign_matrix_bound(companion_matrix, expected_e, measured_mult)
            companion["sign_bound_ok"] = bound["ok"]
            companion["sign_bound_rhs"] = bound["rhs"]
        except InputError as exc:
            companion["sign_bound_ok"] = False
            companion["sign_bound_reason"] = str(exc)
    else:
        companion["sign_bound_ok"] = None

    checks = [rank <= im.n_cap, zero_ok, integral_ok, bound_ok, mult_ok]
    if companion["sign_bound_ok"] is not None:
        checks.append(bool(companion["sign_bound_ok"]))
    return CertificateVerdict(
        setting=im.setting,
        class_index=im.class_index,
        n=n,
        x_size=im.x_size,
        context=context,
        hypothesis_met=im.x_size >= context.cardinality_threshold,
        decomposition_dev=im.max_decomposition_dev,
        rank=rank,
        rank_cap=im.n_cap,
        rank_ok=rank <= im.n_cap,
        zero_multiplicity=spectrum.zero_multiplicity,
        zero_required=im.n_cap,
        zero_applicable=zero_applicable,
        zero_ok=zero_ok,
        k_value=k,
        k_rounded=k_rounded,
        integrality_dev=integrality_dev,
        integral_ok=integral_ok,
        ratio_bound=context.ratio_bound,
        bound_ok=bound_ok,
        companion=companion,
        all_passed=all(checks),
    )


def applicable_certificate_settings(ps: PointSet, tol: float = DEFAULT_TOL) -> list[str]:
    """Certificate settings this set supports, most generic first."""
    settings = ["euclidean"]
    if on_unit_sphere(ps, tol):
        settings.append("spherical")
        try:
            structure = antipodal_structure(ps, tol)
            prefix = f"antipodal_{structure.parity}"
            theorem_context(f"{prefix}_v1", linear_dimension(ps), structure.s)
            settings.extend([f"{prefix}_v1", f"{prefix}_v2"])
        except (InputError, ParameterError):
            pass
    return settings


def class_index_range(ps: PointSet, setting: str, tol: float = DEFAULT_TOL) -> range:
    """Valid 1-based class indices for a setting on this point set."""
    if setting == "euclidean":
        return range(1, distance_profile(ps, tol).s + 1)
    if setting == "spherical":
        return range(1, inner_product_profile(ps, tol).s + 1)
    structure = antipodal_structure(ps, tol)
    s = structure.s
    if setting.startswith("antipodal_odd"):
        return range(1, (s - 1) // 2 + 1)
    if setting == "antipodal_even_v1":
        return range(1, s // 2 + 1)
    if setting == "antipodal_even_v2":
        return range(2, s // 2 + 1)
    raise ParameterError(f"unknown setting {setting!r}")
