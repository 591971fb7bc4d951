"""Dimension counts, cardinality thresholds, and integer ratio bounds.

All floors are taken with exact integer arithmetic: the bound values are
compared by cross-multiplied integer inequalities, never by flooring a float.
Several bundled configurations attain a bound exactly, where one ulp of float
error would flip the answer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from math import comb, isqrt
from types import MappingProxyType

from .errors import ParameterError


def _comb(n: int, k: int) -> int:
    # comb with the usual convention C(n, k) = 0 for k < 0 or k > n.
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def dim_poly_space(kind: str, d: int, l: int) -> int:
    """Dimension of a polynomial function space restricted to R^d or S^(d-1)."""
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if l < 0:
        raise ParameterError(f"degree must be >= 0, got {l}")
    if kind == "P_full":
        return _comb(d + l, l)
    if kind == "P_sphere":
        return _comb(d + l - 1, l) + _comb(d + l - 2, l - 1)
    if kind == "P_star_sphere":
        return _comb(d + l - 1, l)
    if kind == "W_space":
        return _comb(d + l, l) + _comb(d + l - 1, l - 1)
    raise ParameterError(f"unknown polynomial space kind {kind!r}")


def ratio_bound_U(N: int) -> int:
    """Largest integer u with u <= 1/2 + sqrt(N^2/(2N-2) + 1/4), exactly.

    Equivalent integer test: (2u-1)^2 * (N-1) <= 2*N^2 + N - 1. As (2u-1)^2
    is an integer, that is (2u-1)^2 <= (2*N^2 + N - 1) // (N-1), so
    2u - 1 <= isqrt of it.
    """
    if N < 2:
        raise ParameterError(f"ratio bound needs N >= 2, got {N}")
    return (isqrt((2 * N * N + N - 1) // (N - 1)) + 1) // 2


def antipodal_ratio_bound(N: int) -> int:
    """Largest integer u with u^2 <= 2*N^2/(N+1), exactly: as u^2 is an
    integer, u^2 <= (2*N^2) // (N+1)."""
    if N < 1:
        raise ParameterError(f"antipodal ratio bound needs N >= 1, got {N}")
    return isqrt((2 * N * N) // (N + 1))


@dataclass(frozen=True)
class TheoremContext:
    """Parameters a ratio-integrality theorem instance is checked against."""

    setting: str
    d: int
    s: int
    N: int
    cardinality_threshold: int
    ratio_bound: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Setting:
    """One ratio-integrality setting as data.

    Its ratios are the Lagrange basis values L_i(at) on its nodes, divided by
    beta_i when signed. Class i's indicator polynomial is L_i on the mapped
    pair values (times the pair value over beta_i when signed), in the space
    `space` of degree s - degree_offset; its dimension N gives the
    cardinality threshold multiplier * N + addend and the ratio bound bound(N).
    """

    name: str
    family: str  # "euclidean", "spherical" or "antipodal"
    parity: str | None  # the parity of s an antipodal row needs
    min_s: int
    space: str
    degree_offset: int
    threshold: tuple[int, int]  # (multiplier, addend)
    bound: Callable[[int], int]
    first_index: int  # the 1-based class index of the first node
    at: float
    signed: bool

    def indices(self, values) -> range:
        """The 1-based class indices with a ratio, for the family's class values."""
        return range(self.first_index, len(values) + 1)

    def node_map(self, x):
        """Squares |beta| (or a pair inner product) in the antipodal family."""
        return x * x if self.family == "antipodal" else x

    def nodes(self, values) -> list[float]:
        """The mapped class values from first_index on (the even variant 2
        drops the zero class)."""
        return [self.node_map(float(v)) for v in values[self.first_index - 1 :]]


_U, _A = ratio_bound_U, antipodal_ratio_bound

SETTING_TABLE = MappingProxyType({
    row.name: row
    for row in (
        # name, family, parity, min_s, space, degree_offset, threshold, bound,
        # first_index, at, signed
        Setting("euclidean", "euclidean", None, 2, "W_space", 1, (2, 0), _U, 1, 0.0, False),
        Setting("spherical", "spherical", None, 2, "P_sphere", 1, (2, 0), _U, 1, 1.0, False),
        Setting("antipodal_odd_v1", "antipodal", "odd", 5, "P_star_sphere", 3, (4, 0), _U, 1, 1.0, False),
        Setting("antipodal_odd_v2", "antipodal", "odd", 5, "P_star_sphere", 2, (4, 2), _A, 1, 1.0, True),
        Setting("antipodal_even_v1", "antipodal", "even", 4, "P_star_sphere", 2, (4, 0), _U, 1, 1.0, False),
        Setting("antipodal_even_v2", "antipodal", "even", 4, "P_star_sphere", 3, (4, 2), _A, 2, 1.0, True),
    )
})

SETTINGS = tuple(SETTING_TABLE)

FAMILIES = tuple(dict.fromkeys(row.family for row in SETTING_TABLE.values()))


def setting_row(setting: str) -> Setting:
    if setting not in SETTING_TABLE:
        raise ParameterError(f"unknown setting {setting!r}")
    return SETTING_TABLE[setting]


def theorem_context(setting: str, d: int, s: int) -> TheoremContext:
    """Space dimension N, cardinality threshold, and ratio bound per setting."""
    row = setting_row(setting)
    if d < 1:
        raise ParameterError(f"d must be >= 1, got {d}")
    if s < row.min_s or (row.parity and (s % 2 == 1) != (row.parity == "odd")):
        need = f"needs {row.parity} s" if row.parity else "setting needs s"
        raise ParameterError(f"{setting} {need} >= {row.min_s}, got {s}")
    N = dim_poly_space(row.space, d, s - row.degree_offset)
    multiplier, addend = row.threshold
    return TheoremContext(setting, d, s, N, multiplier * N + addend, row.bound(N))


def cardinality_bound(kind: str, d: int, s: int) -> int:
    """Known upper bounds on the size of an s-distance set."""
    if d < 1 or s < 1:
        raise ParameterError(f"need d >= 1 and s >= 1, got d={d}, s={s}")
    if kind == "euclidean_bbs":
        return _comb(d + s, s)
    if kind == "spherical_dgs":
        return _comb(d + s - 1, s) + _comb(d + s - 2, s - 1)
    if kind == "antipodal_dgs":
        return 2 * _comb(d + s - 2, s - 1)
    raise ParameterError(f"unknown cardinality bound kind {kind!r}")
