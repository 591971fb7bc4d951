"""Calibration probe: a fixed piece of work that never imports fewdist.

    python3 bench/probe.py

run.py runs it as a child process next to every timed command and scales
each command's wall time by how long the probe took around it. The machine's
speed drifts, so the scaled time keeps the program's own cost and drops most
of the drift. The work mirrors what a fewdist command does: interpreter start
and the numpy import, a pure-Python grouping loop, an n x n x d difference
array, and LAPACK and BLAS calls on a dense symmetric matrix. It is the same
on every run and takes about a quarter of a second.
"""

import numpy as np

rng = np.random.default_rng(12345)
points = rng.standard_normal((300, 12))
diff = points[:, None, :] - points[None, :, :]
gram = np.einsum("ijk,ijk->ij", diff, diff)
groups: dict[float, list[float]] = {}
for value in gram[np.triu_indices(300, 1)].tolist():
    groups.setdefault(round(value, 1), []).append(value)
total = 0.0
for i in range(200_000):
    total += (i % 7) * 0.5
sym = rng.standard_normal((300, 300))
sym = sym + sym.T
np.linalg.eigvalsh(sym)
np.linalg.svd(sym @ sym, compute_uv=False)
