import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fewdist import PointSet, construct_johnson, construct_named, half_set


@pytest.fixture(scope="session")
def johnson_10_3():
    return construct_johnson(10, 3)


@pytest.fixture(scope="session")
def e8():
    return construct_named("e8_roots")


@pytest.fixture(scope="session")
def pentagon():
    return construct_named("pentagon")


@pytest.fixture(scope="session")
def icosahedron():
    return construct_named("icosahedron")


@pytest.fixture(scope="session")
def cross_polytope_4():
    return construct_named("cross_polytope", d=4)


@pytest.fixture(scope="session")
def hypercube_4():
    return construct_named("hypercube", d=4)


@pytest.fixture(scope="session")
def simplex_5():
    return construct_named("simplex", d=5)


@pytest.fixture(scope="session")
def unit_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return PointSet(dimension=2, points=pts)


@pytest.fixture(scope="session")
def bundled_sets(johnson_10_3, e8, pentagon, icosahedron, cross_polytope_4, hypercube_4,
                 simplex_5, unit_square):
    return {
        "johnson_10_3": johnson_10_3,
        "e8": e8,
        "pentagon": pentagon,
        "icosahedron": icosahedron,
        "cross_polytope_4": cross_polytope_4,
        "hypercube_4": hypercube_4,
        "simplex_5": simplex_5,
        "unit_square": unit_square,
    }


@pytest.fixture
def bench_module(monkeypatch):
    """A function that loads bench/<name>.py, changing nothing under bench/."""

    def load(name):
        path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
        return module

    return load


@pytest.fixture(scope="session")
def half_rows():
    """A function giving the row of ps.points of each point of half_set(ps, tol), in its order."""

    def rows(ps, *tol):
        match = np.all(half_set(ps, *tol).points[:, None] == ps.points[None], axis=-1)
        assert np.all(match.sum(axis=1) == 1)
        return np.argmax(match, axis=1)

    return rows


@pytest.fixture
def traced_peak():
    """A function that calls fn(*args) and returns its peak of traced allocations, in bytes."""

    def measure(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    return measure
