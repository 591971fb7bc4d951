"""Lagrange basis polynomials L_i(x) = prod_{j != i} (x - v_j) / (v_i - v_j).

Both functions multiply the factors in ascending j from 1.0, skipping j = i,
so a value does not depend on which setting or caller asks for it.
"""

from __future__ import annotations

import numpy as np


def lagrange_weights(nodes, x0: float) -> list[float]:
    """[L_1(x0), ..., L_m(x0)] on the float nodes v_1, ..., v_m."""
    weights = []
    for i, vi in enumerate(nodes):
        w = 1.0
        for j, vj in enumerate(nodes):
            if j != i:
                w *= (x0 - vj) / (vi - vj)
        weights.append(w)
    return weights


def lagrange_basis(nodes, i: int, X) -> np.ndarray:
    """L_i (0-based i) on the float nodes, evaluated entry by entry on X."""
    out = np.ones_like(X, dtype=float)
    for j, vj in enumerate(nodes):
        if j != i:
            out *= (X - vj) / (nodes[i] - vj)
    return out
