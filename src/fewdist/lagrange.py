"""Lagrange basis polynomials L_i(x) = prod_{j != i} (x - v_j) / (v_i - v_j).

The basis functions multiply the factors in ascending j from 1.0, skipping
j = i, so a value does not depend on which setting or caller asks for it.
The ratios k_i of fewdist.ratios and the forward map K of fewdist.inverse
share one evaluator, lagrange_weights.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidSignError, ParameterError

DOMAIN_EPS = 1e-12  # smallest gap between the nodes 0 < t_1 < ... < t_{s-1} < 1 of the domain D


def lagrange_weights(nodes, x0: float) -> np.ndarray:
    """L_1(x0), ..., L_m(x0) on each row of float nodes (..., m), as lagrange_basis
    gives them: for ascending j, all L_i and rows at once take the factor
    (x0 - v_j) / (v_i - v_j), and L_j the factor 1.0, which changes no bit."""
    nodes = np.ascontiguousarray(np.moveaxis(np.asarray(nodes, dtype=float), -1, 0))
    out, factor = np.ones(nodes.shape), np.empty(nodes.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 at i = j, replaced by 1.0
        for j, node in enumerate(nodes):
            np.divide(np.subtract(x0, node), np.subtract(nodes, node, out=factor), out=factor)
            factor[j] = 1.0
            out *= factor
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def lagrange_basis(nodes, i: int, X) -> np.ndarray:
    """L_i (0-based i) on the float nodes, evaluated entry by entry on X."""
    out = np.ones_like(X, dtype=float)
    factor = np.empty_like(out)  # one buffer for every factor
    for j, vj in enumerate(nodes):
        if j != i:
            out *= np.divide(np.subtract(X, vj, out=factor), nodes[i] - vj, out=factor)
    return out


def check_sign_pattern(k) -> np.ndarray:
    """k as floats, if k_i has the sign (-1)**(i-1) of L_i(0) on the nodes (t, 1) of D."""
    arr = np.asarray(k, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ParameterError("k must be a 1-d sequence with at least one entry")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("k must be finite")
    for i, value in enumerate(arr):
        want_positive = i % 2 == 0
        if value == 0.0 or (value > 0.0) != want_positive:
            raise InvalidSignError(
                f"k[{i + 1}] = {float(value)!r} violates the alternating pattern (-1)**(i-1)"
            )
    return arr
