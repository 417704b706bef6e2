"""Per-layer tracing of strandcontact from outside the package.

The tracer replaces module attributes with wrappers.  Callers bind
functions by name (``from .contact import ca_table``), so each wrapper is
installed on the binding that the calling module actually uses, e.g.
``isoverify.ca_table`` rather than ``contact.ca_table``.

Two kinds of wrapper exist:

* a span marks a layer boundary.  It times the call and counts it.  Spans
  nest on a stack; a span's self time is its duration minus the time of
  the spans opened inside it, so every second of traced work is charged
  to exactly one span (or to no span, when it ran outside all of them).
* a counter marks a call inside one layer.  It only counts, so the layer's
  own self time keeps the work.

Spans are aggregated as they close (calls and self time per name) instead
of being stored, because the contact layer alone makes ~400k calls on a
k=5 diagram.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

PACKAGE = "strandcontact"

# (module, attribute, span name).  Several bindings may share a span name
# when they are different callers' names for one function.
SPANS = (
    ("cli", "verify", "isoverify.verify"),
    ("isoverify", "verify", "isoverify.verify"),
    ("isoverify", "corpus", "isoverify.corpus"),
    ("cli", "emit", "cli.emit"),
    ("contact", "to_quad_surface", "arcdiag.surface"),
    ("isoverify", "to_quad_surface", "arcdiag.surface"),
    ("isoverify", "ca_table", "contact.ca_table"),
    ("isoverify", "enumerate_basis", "algebra.enumerate_basis"),
    ("homology", "enumerate_basis", "algebra.enumerate_basis"),
    ("homology", "diff_generator", "algebra.diff_generator"),
    ("homology", "generator_maslov2", "algebra.maslov2"),
    ("isoverify", "mul_sums", "algebra.mul_sums"),
    ("algebra", "multiply", "strands.multiply"),
    ("algebra", "differential", "strands.differential"),
    ("algebra", "inversions", "strands.inversions"),
    ("isoverify", "build_summand", "homology.build_summand"),
    ("cli", "build_summand", "homology.build_summand"),
    ("homology", "gf2_rank", "homology.gf2"),
    ("homology", "gf2_kernel_basis", "homology.gf2"),
    ("homology", "gf2_in_span", "homology.gf2"),
    ("isoverify", "is_boundary", "homology.is_boundary"),
    ("isoverify", "representative", "homology.representative"),
    ("isoverify", "summand_nonzero", "homology.local"),
    ("isoverify", "ring_product", "homology.local"),
)

# lru_cache'd functions whose misses count the work actually done.
CACHES = (("algebra", "expand"), ("homology", "build_summand"))


class Tracer:
    """Installs the wrappers and accumulates self time and counts."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time of each open span
        self._in_enumerate_tight = False
        self._basis_misses = 0

    def install(self) -> None:
        """Wrap every binding; a missing name raises instead of reading 0."""
        for module, attr, name in SPANS:
            hook = self._hooks.get((module, attr))
            self._wrap(module, attr, lambda fn, n=name, h=hook: self._span(n, fn, h))
        self._wrap("contact", "enumerate_tight", self._enumerate_tight)
        self._wrap("contact", "make_structure", self._make_structure)
        self._wrap("contact", "stack", self._stack)
        self._cache_start = {key: _cache_info(*key) for key in CACHES}

    def counters(self, products_checked: int, output_bytes: int) -> dict:
        """Counts of one process, flattened under their metric names."""
        c = self.counts
        out = {
            "arcdiag.surface_failures": c["arcdiag.surface.raised"],
            "contact.candidates": c["contact.candidates"],
            "contact.tight": c["contact.tight"],
            "contact.stack_calls": c["contact.stack"],
            "contact.stack_nonzero": c["contact.stack_nonzero"],
            "algebra.generators": c["algebra.generators"],
            "algebra.diff_generator_calls": c["algebra.diff_generator"],
            "algebra.maslov2_calls": c["algebra.maslov2"],
            "algebra.mul_sums_calls": c["algebra.mul_sums"],
            "algebra.mul_nonzero": c["algebra.mul_sums_nonzero"],
            "strands.multiply_calls": c["strands.multiply"],
            "strands.differential_calls": c["strands.differential"],
            "homology.gf2_calls": c["homology.gf2"],
            "homology.is_boundary_calls": c["homology.is_boundary"],
            "homology.ring_product_calls": c["homology.ring_product"],
            "isoverify.ring_pairs": products_checked,
            "isoverify.ring_composable": c["isoverify.ring_composable"],
            "cli.output_bytes": output_bytes,
        }
        _, out["algebra.expand_misses"] = self._cache_delta("algebra", "expand")
        hits, misses = self._cache_delta("homology", "build_summand")
        out["homology.summands_built"] = misses
        out["homology.summand_hits"] = hits
        return out

    def _cache_delta(self, module: str, attr: str) -> tuple[int, int]:
        """(hits, misses) since install()."""
        now, start = _cache_info(module, attr), self._cache_start[(module, attr)]
        return now.hits - start.hits, now.misses - start.misses

    def _wrap(self, module: str, attr: str, make) -> None:
        mod = _module(module)
        if attr not in mod.__dict__ or not callable(mod.__dict__[attr]):
            raise AttributeError(f"traced name {PACKAGE}.{module}.{attr} does not exist")
        setattr(mod, attr, make(mod.__dict__[attr]))

    def _span(self, name: str, fn, on_result):
        clock = time.perf_counter
        open_spans = self._open
        self_s = self.self_s
        counts = self.counts

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".raised"] += 1
                raise
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                counts[name] += 1
            if on_result is not None:
                on_result(self, fn, args, result)
            return result

        return wrapper

    def _after_enumerate_basis(self, fn, args, result) -> None:
        # Generators are counted once per cache miss, i.e. when built.
        misses = fn.cache_info().misses
        if misses != self._basis_misses:
            self._basis_misses = misses
            self.counts["algebra.generators"] += len(result)

    def _after_mul_sums(self, fn, args, result) -> None:
        if result:
            self.counts["algebra.mul_sums_nonzero"] += 1

    def _after_ring_product(self, fn, args, result) -> None:
        _, gen1, gen2 = args
        self.counts["homology.ring_product"] += 1
        if gen1[1] == gen2[0]:  # top of the left factor meets bottom of the right
            self.counts["isoverify.ring_composable"] += 1

    # Hooks see each call's arguments and result, keyed by the wrapped binding.
    _hooks = {
        ("isoverify", "enumerate_basis"): _after_enumerate_basis,
        ("homology", "enumerate_basis"): _after_enumerate_basis,
        ("isoverify", "mul_sums"): _after_mul_sums,
        ("isoverify", "ring_product"): _after_ring_product,
    }

    def _enumerate_tight(self, fn):
        def wrapper(*args, **kwargs):
            outer = self._in_enumerate_tight
            self._in_enumerate_tight = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_enumerate_tight = outer

        return wrapper

    def _make_structure(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            xi = fn(*args, **kwargs)
            if self._in_enumerate_tight:
                counts["contact.candidates"] += 1
                if xi.tight:
                    counts["contact.tight"] += 1
            return xi

        return wrapper

    def _stack(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts["contact.stack"] += 1
            if result is not None:
                counts["contact.stack_nonzero"] += 1
            return result

        return wrapper


def _module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def _cache_info(module: str, attr: str):
    return _module(module).__dict__[attr].cache_info()
