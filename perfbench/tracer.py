"""Spans and counters around ribboncoh's public functions, added from outside.

``install`` rebinds each traced function, in every loaded ``ribboncoh``
module that holds a reference to it, to a wrapper.  The package's source is
not changed: the wrappers exist only in the traced child process.

Time is accounted at span boundaries.  The interval between two boundaries
is *self* time of the innermost open span, so a span's self time is its
duration minus the part its child spans cover.  The *busy* time of a span
name or a layer adds up only its outermost spans, so recursion and re-entry
(``class_of`` calls ``to_oriented_class``) are not counted twice.

Per-candidate calls (``is_minimal_form``, about half a million in an mw run)
get a counter only; a span there would cost more than the work it measures.
"""
from __future__ import annotations

import functools
import sys
import time


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[tuple[str, str]] = []   # (layer, name) of open spans
        self.open_layers: dict[str, list] = {}   # layer -> [open spans, outermost start]
        self.open_names: dict[str, list] = {}    # span name -> [open spans, outermost start]
        self.last = clock()
        self.self_s: dict[str, float] = {}       # span name -> self time
        self.busy_s: dict[str, float] = {}       # span name -> busy time
        self.layer_busy_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}          # span name -> calls
        self.entries: dict[str, int] = {}        # layer -> calls from outside it
        self.counters: dict[str, float] = {}

    def _boundary(self) -> float:
        """Close the interval since the last boundary; it is self time of the
        innermost open span."""
        now = self.clock()
        if self.stack:
            top = self.stack[-1][1]
            self.self_s[top] = self.self_s.get(top, 0.0) + (now - self.last)
        self.last = now
        return now

    def enter(self, layer: str, name: str) -> None:
        now = self._boundary()
        self.stack.append((layer, name))
        self.calls[name] = self.calls.get(name, 0) + 1
        for key, table in ((layer, self.open_layers), (name, self.open_names)):
            slot = table.get(key)
            if slot is None:
                table[key] = [1, now]
            else:
                slot[0] += 1
        if self.open_layers[layer][0] == 1:
            self.entries[layer] = self.entries.get(layer, 0) + 1

    def exit(self) -> None:
        now = self._boundary()
        layer, name = self.stack.pop()
        for key, table, busy in (
            (layer, self.open_layers, self.layer_busy_s),
            (name, self.open_names, self.busy_s),
        ):
            slot = table[key]
            slot[0] -= 1
            if slot[0] == 0:
                del table[key]
                busy[key] = busy.get(key, 0.0) + (now - slot[1])

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        if value > self.counters.get(name, 0):
            self.counters[name] = value

    def report(self) -> dict:
        return {
            "self_s": self.self_s,
            "busy_s": self.busy_s,
            "layer_busy_s": self.layer_busy_s,
            "calls": self.calls,
            "entries": self.entries,
            "counters": self.counters,
        }

    def span(self, layer: str, name: str, fn, on_result=None):
        """Wrapper of fn that opens a span around each call; on_result(result,
        args) runs after the span closes, so its cost is not attributed."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper


def rebind(original, replacement) -> int:
    """Point every module-level reference to ``original`` inside the
    ribboncoh package at ``replacement``; returns how many were changed."""
    changed = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ribboncoh" or mod_name.startswith("ribboncoh.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed += 1
    return changed


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of ribboncoh.  The package must be imported
    (``ribboncoh.cli`` pulls in every module traced here)."""
    from ribboncoh import cache, canonical, checks, cli, complexes, diff, enumeration, linalg

    def wrap(module, layer, name, on_result=None):
        original = getattr(module, name)
        if rebind(original, tracer.span(layer, name, original, on_result)) == 0:
            raise RuntimeError("no reference to %s.%s to rebind" % (module.__name__, name))

    def wrap_method(cls, layer, name, on_result=None):
        setattr(cls, name, tracer.span(layer, name, getattr(cls, name), on_result))

    def classes(result, args):
        nonzero, zero = result
        tracer.count("classes", len(nonzero))
        tracer.count("zero_classes", zero)

    def image_terms(result, args):
        tracer.count("image_terms", len(result))

    def matrix_seen(result, args):
        m = args[0]
        tracer.peak("max_rows", m.rows)
        tracer.peak("max_cols", m.cols)
        tracer.peak("max_nnz", m.nnz)
        tracer.count("nnz_total", m.nnz)

    def basis_dims(result, args):
        tracer.count("basis_dim_total", sum(len(b) for b in result.bases.values()))

    def certified(result, args):
        tracer.count("certified_degrees", sum(r["status"] == "certified" for r in result))

    def cache_lookup(result, args):
        tracer.count("cache_misses" if result is None else "cache_hits")

    def generators(result, args):
        tracer.count("generators", result["generators"])

    minimal = enumeration.is_minimal_form
    counters = tracer.counters
    counters["candidates"] = counters["kept"] = 0

    def counted_is_minimal_form(s0, s1):
        keep = minimal(s0, s1)
        counters["candidates"] += 1
        if keep:
            counters["kept"] += 1
        return keep

    rebind(minimal, counted_is_minimal_form)

    for name in ("enumerate_cell", "enumerate_classes", "le2_classes"):
        wrap(enumeration, "enumeration", name, classes)
    wrap(enumeration, "enumeration", "enumerate_bruteforce")
    wrap(canonical, "canonical", "to_oriented_class")
    wrap(canonical, "canonical", "class_of")
    wrap(diff, "diff", "delta", image_terms)
    wrap(diff, "diff", "bridge", image_terms)
    wrap(diff, "diff", "project_ge3")
    wrap(diff, "diff", "apply_linear")
    wrap(linalg, "linalg", "assemble")
    wrap(linalg, "linalg", "rank", matrix_seen)
    wrap(linalg, "linalg", "rank_modp", matrix_seen)
    wrap_method(linalg.SparseIntMatrix, "linalg", "matmul")
    wrap(complexes, "complexes", "build", basis_dims)
    wrap(complexes, "complexes", "cohomology", certified)
    for name in ("load_basis", "load_matrix", "load_table"):
        wrap_method(cache.Cache, "cache", name, cache_lookup)
    for name in ("store_basis", "store_matrix", "store_table"):
        wrap_method(cache.Cache, "cache", name)
    wrap(checks, "checks", "identity_suite", generators)
    for name in ("structural_suite", "oracle_suite", "rank_suite"):
        wrap(checks, "checks", name)
    wrap(cli, "cli", "main")
