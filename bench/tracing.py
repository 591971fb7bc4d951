"""In-process traced run: spans around each layer's public functions.

The wrappers live here, in the benchmark, so nothing under src/ changes.
fewdist's modules import each other with `from .x import y`, so each caller
holds its own reference to a callee; installed() therefore rebinds every
reference to a wrapped function in every fewdist module's globals, not only
in the defining module.

A span's self time is its duration minus the time of the wrapped spans it
directly contains. Memory is measured in a pass of its own under
tracemalloc, so that tracemalloc does not inflate the self times.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import sys
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = ("pointset", "ratios", "certificate", "inverse", "search", "jsonio", "cli")
MIB = 1024.0 * 1024.0


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0  # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0
    depth: int = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, qualname: str, fn, on_result=None):
        stat = self.stats.setdefault(qualname, Stat())
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - children[0]
                if stat.depth == 0:
                    stat.total_s += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(self, result, elapsed)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _on_load(tracer, ps, _):
    tracer.count("pairs", ps.n * (ps.n - 1) // 2)


def _on_invert(tracer, result, elapsed):
    if not result.success:
        tracer.count("failed_invert_s", elapsed)


def _on_verify(tracer, verdict, _):
    # The indicator matrix and its companion are each a dense n x n float64.
    tracer.count("dense_bytes", 2 * 8 * verdict.n * verdict.n)


def _on_realize(tracer, catalog, _):
    tracer.count("tuples", len(catalog.entries))
    tracer.count("decided", sum(e.status != "newton_failed" for e in catalog.entries))


def _on_dumps(tracer, text, _):
    tracer.count("bytes", len(text.encode()))


HOOKS = {
    "pointset.load_points": _on_load,
    "inverse.invert_K": _on_invert,
    "certificate.verify_key_lemma": _on_verify,
    "search.realize_catalog": _on_realize,
    "jsonio.dumps": _on_dumps,
}


def public_functions() -> dict[int, tuple[object, str]]:
    """id(function) -> (function, "layer.name") for each layer's own public functions."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"fewdist.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found[id(obj)] = (obj, f"{layer}.{name}")
    return found


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every fewdist module global that names a public layer function
    to its wrapper; restore the originals on exit."""
    wrappers = {
        key: (fn, tracer.wrap(qualname, fn, HOOKS.get(qualname)))
        for key, (fn, qualname) in public_functions().items()
    }
    patched = []
    try:
        for modname, module in list(sys.modules.items()):
            if modname != "fewdist" and not modname.startswith("fewdist."):
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])
                    patched.append((module, name, obj))
        yield tracer
    finally:
        for module, name, obj in reversed(patched):
            setattr(module, name, obj)


@dataclass(frozen=True)
class InProcessResult:
    argv: tuple[str, ...]
    wall_s: float
    returncode: int
    stdout: str


def run_pass(argvs) -> list[InProcessResult]:
    """Run each command through fewdist.cli.run in this process, in order."""
    cli = importlib.import_module("fewdist.cli")
    results = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.run(list(argv))
            wall = time.perf_counter() - start
        results.append(InProcessResult(tuple(argv), wall, code, out.getvalue()))
    return results


def load_peak_mib(paths) -> float:
    """Largest tracemalloc peak of one load_points call over the given files."""
    pointset = importlib.import_module("fewdist.pointset")
    peak = 0.0
    for path in paths:
        tracemalloc.start()
        try:
            pointset.load_points(path)
            peak = max(peak, tracemalloc.get_traced_memory()[1] / MIB)
        finally:
            tracemalloc.stop()
    return peak


def _group(tracer: Tracer, names, field: str) -> float:
    total = 0.0
    for name in names:
        stat = tracer.stats.get(name)
        if stat is not None:
            total += getattr(stat, field)
    return total


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced pass (times in s, counts as numbers)."""
    profile = ("pointset.distance_profile", "pointset.inner_product_profile")
    antipodal = ("pointset.is_antipodal", "pointset.half_set", "pointset.antipodal_structure")
    ratios = [name for name in tracer.stats if name.startswith("ratios.")]
    tuples = tracer.counters.get("tuples", 0.0)

    def g(field, *names):
        return _group(tracer, names, field)

    return {
        "pointset.load_s": g("total_s", "pointset.load_points"),
        "pointset.profile_self_s": g("self_s", *profile),
        "pointset.profile_calls": g("calls", *profile),
        "pointset.pair_matrix_calls": g("calls", "pointset.squared_distance_matrix"),
        "pointset.antipodal_self_s": g("self_s", *antipodal),
        "pointset.antipodal_calls": g("calls", *antipodal),
        "pointset.pairs": tracer.counters.get("pairs", 0.0),
        "ratios.analyze_self_s": g("self_s", *ratios),
        "certificate.rank_s": g("total_s", "certificate.numeric_rank"),
        "certificate.rank_calls": g("calls", "certificate.numeric_rank"),
        "certificate.spectrum_s": g("total_s", "certificate.eigen_multiplicities"),
        "certificate.spectrum_calls": g("calls", "certificate.eigen_multiplicities"),
        "certificate.indicator_self_s": g("self_s", "certificate.indicator_matrix"),
        "certificate.indicator_calls": g("calls", "certificate.indicator_matrix"),
        "certificate.verify_self_s": g(
            "self_s", "certificate.verify_key_lemma", "certificate.verify_sign_matrix_bound"
        ),
        "certificate.settings_s": g(
            "total_s", "certificate.applicable_certificate_settings", "certificate.class_index_range"
        ),
        "certificate.dense_mib_computed": tracer.counters.get("dense_bytes", 0.0) / MIB,
        "inverse.invert_calls": g("calls", "inverse.invert_K"),
        "inverse.invert_self_s": g("self_s", "inverse.invert_K"),
        "inverse.forward_calls": g("calls", "inverse.forward_K"),
        "inverse.forward_s": g("total_s", "inverse.forward_K"),
        "inverse.jacobian_calls": g("calls", "inverse.jacobian"),
        "inverse.jacobian_s": g("total_s", "inverse.jacobian"),
        "inverse.failed_invert_s": tracer.counters.get("failed_invert_s", 0.0),
        "search.enumerate_s": g("total_s", "search.enumerate_tuples"),
        "search.realize_self_s": g("self_s", "search.realize_catalog"),
        "search.tuples": tuples,
        "search.decided_ratio": tracer.counters.get("decided", 0.0) / tuples if tuples else 0.0,
        "jsonio.dumps_s": g("total_s", "jsonio.dumps"),
        "jsonio.bytes": tracer.counters.get("bytes", 0.0),
        "cli.self_s": g("self_s", "cli.run", "cli.build_parser"),
    }
