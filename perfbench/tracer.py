"""Outside-in per-layer tracing of the eosieve public functions.

The tracer replaces each listed function, in every eosieve module namespace
that binds it (``from .orders import ...`` copies, the package re-exports
and the CLI imports), by a wrapper that keeps a span stack.  A layer's self
time is the duration of its spans minus the part covered by spans of other
listed functions called inside them.  Spans are aggregated in memory and
returned by ``report`` when the traced process ends.  Library code is not
changed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "eosieve"
LAYERS = {
    "arith": ("prime_array", "factorize"),
    "orders": (
        "multiplication_table",
        "p_saturate",
        "order_index",
        "equation_order_index",
        "poly_disc_resultant",
    ),
    "purefield": ("pure_index", "alpha_monogenic"),
    "obstruction": (
        "enumerate_Pg",
        "estimate_delta",
        "in_Pg",
        "obstruction_certificate",
        "local_coset_check",
    ),
    "experiments": ("alpha_density", "pfree_counts_for_primes", "mertens_sum", "exceptional_scan"),
    "families": (
        "trinomial_monogenic_check",
        "scaled_family_scan",
        "twist_index_check",
        "thin_family_check",
        "thin_member_density",
    ),
    "cli": ("main",),
}


def _scaled_unresolved(result, exc):
    if exc is not None:
        return 0, 0
    resolved = sum(count for _, count in result.index_values)
    return len(result.unresolved), len(result.unresolved) + resolved


# ratio name -> (traced function, outcome -> (numerator, denominator) increments)
OUTCOME_RATIOS = {
    "obstruction.in_Pg.true_ratio": (
        "obstruction.in_Pg",
        lambda result, exc: (int(exc is None and bool(result)), 1),
    ),
    "obstruction.obstruction_certificate.found_ratio": (
        "obstruction.obstruction_certificate",
        lambda result, exc: (int(exc is None and result is not None), 1),
    ),
    "arith.factorize.refused_ratio": (
        "arith.factorize",
        lambda result, exc: (int(type(exc).__name__ == "FactorizationError"), 1),
    ),
    "families.scaled_family_scan.unresolved_ratio": (
        "families.scaled_family_scan",
        _scaled_unresolved,
    ),
}

# ratio name -> (module, lru-cached function whose cache_info() is read)
CACHE_RATIOS = {
    "orders.multiplication_table.hit_ratio": ("orders", "_multiplication_table_cached"),
}


def layer_names() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for layer in layer_names():
        names += [f"{layer}.calls", f"{layer}.self_s"]
    return names + list(OUTCOME_RATIOS) + list(CACHE_RATIOS)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.ratios: dict[str, list] = {name: [0, 0] for name in OUTCOME_RATIOS}
        self.missing: list[str] = []
        self._stack: list[float] = []  # child time covered inside each open span
        self._caches: dict[str, tuple] = {}

    def install(self) -> None:
        """Wrap every listed function that exists; record the rest as missing."""
        layer_modules = {}
        for module_name, names in LAYERS.items():
            try:
                layer_modules[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing += [f"{module_name}.{name}" for name in names]
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, module in layer_modules.items():
            for name in LAYERS[module_name]:
                layer = f"{module_name}.{name}"
                original = getattr(module, name, None)
                if not callable(original):
                    self.missing.append(layer)
                    continue
                wrapper = self._wrap(layer, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
        for ratio, (module_name, name) in CACHE_RATIOS.items():
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            cached = getattr(module, name, None)
            if hasattr(cached, "cache_info"):
                self._caches[ratio] = (cached, cached.cache_info())
            else:
                self.missing.append(f"{module_name}.{name}")

    def _wrap(self, layer: str, fn):
        stat = self.stats[layer] = [0, 0.0]
        observers = [
            (self.ratios[ratio], classify)
            for ratio, (target, classify) in OUTCOME_RATIOS.items()
            if target == layer
        ]
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
                for counts, classify in observers:
                    num, den = classify(result, exc)
                    counts[0] += num
                    counts[1] += den

        return wrapper

    def report(self) -> dict:
        """Per-layer metric values; a ratio with an empty base reads 0."""
        values: dict[str, float] = {}
        for layer in layer_names():
            calls, self_s = self.stats.get(layer, (0, 0.0))
            values[f"{layer}.calls"] = calls
            values[f"{layer}.self_s"] = self_s
        for ratio, (num, den) in self.ratios.items():
            values[ratio] = num / den if den else 0.0
        for ratio in CACHE_RATIOS:
            if ratio not in self._caches:
                values[ratio] = 0.0
                continue
            cached, before = self._caches[ratio]
            after = cached.cache_info()
            hits, misses = after.hits - before.hits, after.misses - before.misses
            values[ratio] = hits / (hits + misses) if hits + misses else 0.0
        return {"values": values, "missing": self.missing}
