"""An exact oracle for the partial-sum rule: sympy's lex Groebner basis.

sympy is a test-only dependency; nothing under src/ imports it. For a tuple
k the power-sum system sum_i k_i t_i^m + k_s = 0 (m = 1..s-1), whose roots
in D are exactly the preimages of k under the forward map, is solved
symbolically, its real solutions are recovered level by level from the
triangular lex basis at 50 digits, and the ones in D are counted. There must
be exactly one when no_preimage(k) is None (k in P), and none otherwise.
"""

import numpy as np
import pytest

from fewdist.inverse import invert_K, no_preimage

sp = pytest.importorskip("sympy")

DIGITS = 50


def real_roots_in_domain(k):
    n = len(k)
    t = sp.symbols(f"t1:{n + 1}")
    k_last = 1 - sum(k)
    system = [sum(ki * ti**m for ki, ti in zip(k, t)) + k_last for m in range(1, n + 1)]
    basis = sp.groebner(system, *reversed(t), order="lex")
    assert basis.is_zero_dimensional
    tiny = sp.Float(10) ** (10 - DIGITS)
    solutions = [{}]
    for level, var in enumerate(t):
        known = set(t[: level + 1])
        polys = [g for g in basis.exprs if var in g.free_symbols and g.free_symbols <= known]
        extended = []
        for solution in solutions:
            reduced = [sp.Poly(sp.N(g.subs(solution), DIGITS), var) for g in polys]
            reduced = [p for p in reduced if not p.is_zero]
            lowest = min(reduced, key=lambda p: p.degree())
            candidates = []
            for root in lowest.nroots(n=DIGITS, maxsteps=200):
                value = sp.re(root)
                if abs(sp.im(root)) > tiny or any(abs(value - c) < tiny for c in candidates):
                    continue
                scale = [max(abs(c) for c in p.all_coeffs()) for p in reduced]
                if all(abs(p.eval(value)) <= tiny * s for p, s in zip(reduced, scale)):
                    candidates.append(value)
            extended += [{**solution, var: value} for value in candidates]
        solutions = extended
    inside = [s for s in solutions if 0 < s[t[0]] and all(s[a] < s[b] for a, b in zip(t, t[1:])) and s[t[-1]] < 1]
    return [tuple(float(s[ti]) for ti in t) for s in inside]


TUPLES = [
    # Outside P, with k_1 + k_2 > 1.
    (13, -7, 8),
    (12, -1, 3),
    (9, -4, 7),
    # (4, 4) tuples: ones in P, one with only double roots, and ones outside P.
    (2, -5, 5),
    (3, -3, 3),
    (5, -5, 5),
    (2, -1, 1),
    (3, -2, 2),
    (4, -2, 1),
    (5, -4, 3),
]


@pytest.mark.parametrize("k", TUPLES)
def test_rule_counts_roots_in_domain_like_groebner(k):
    exact = real_roots_in_domain(k)
    if no_preimage(k) is not None:
        assert exact == []
        return
    (root,) = exact
    result = invert_K(np.array(k, dtype=float))
    assert result.success
    assert result.t == pytest.approx(root, abs=1e-9)
