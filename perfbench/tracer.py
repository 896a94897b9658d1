"""Spans around the public functions of eulercong, kept in memory.

`Tracer.install()` replaces each public function and method of the
package's modules with a wrapper that records one span (name, start,
end, parent) per call, and patches every module that imported the
function by name, so calls between modules are seen too. Nothing under
`src/` changes: the wrappers live only in the traced process and
`uninstall()` puts the originals back.

Constructors (except `RatFunc.__init__`), properties and comparisons
are left unwrapped; their time counts as self time of the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

LAYERS = ("cli", "eulerian", "congruence", "poly", "ratfunc", "series", "prooftrace")

# Dunder methods that do real work; other underscore names are private
# helpers or accessors and stay unwrapped.
WRAPPED_DUNDERS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__divmod__",
    "__str__",
}
EXTRA = {"RatFunc": {"__init__", "__eq__"}}

# Spans whose inclusive time is rendering output (cli.render_s).
RENDER = {
    "cli.frac_str", "cli.coeff_list", "cli.poly_latex", "cli.ratfunc_json",
    "cli.report_json", "cli.trace_json", "cli.dump_json",
    "poly.Poly.__str__", "ratfunc.RatFunc.__str__",
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.max_coeff_bits = 0
        self._undo: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.uninstall)

    def clear(self) -> None:
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.max_coeff_bits = 0

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _wrap_product(self, name: str, fn):
        """Poly.__mul__, also noting the widest numerator or denominator."""

        def product(a, b):
            out = fn(a, b)
            if out is not NotImplemented and out.coeffs:
                bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                           for c in out.coeffs)
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
            return out

        return self._wrap(name, functools.wraps(fn)(product))

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"eulercong.{layer}")
                   for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
        cli = modules["cli"]
        self._set(cli, "ProcessPoolExecutor", _pool_class(self))

    def _install_class(self, layer: str, cls: type) -> None:
        extra = EXTRA.get(cls.__name__, set())
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS | extra:
                continue
            name = f"{layer}.{cls.__name__}.{getattr(obj, '__name__', attr)}"
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                wrap = self._wrap_product if name == "poly.Poly.__mul__" else self._wrap
                self._set(cls, attr, wrap(name, obj))

    def _set(self, target, attr: str, value) -> None:
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- reading ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (s) and counts from the spans recorded so far."""
        n = len(self.name)
        names = [self.names[k] for k in self.name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        parent_name = [names[p] if p >= 0 else "" for p in self.parent]

        out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        incl: dict[str, float] = {}
        calls: dict[str, int] = {}
        render = pool = remainder = cofactor = 0.0
        for i in range(n):
            name, parent = names[i], parent_name[i]
            out[name.split(".", 1)[0] + ".self_s"] += dur[i] - covered[i]
            incl[name] = incl.get(name, 0.0) + dur[i]
            calls[name] = calls.get(name, 0) + 1
            if name in RENDER and parent.startswith("cli.") and parent not in RENDER:
                render += dur[i]
            elif name == "cli.pool":
                pool += dur[i]
            elif parent == "congruence.report_from_sides":
                if name == "poly.remainder_mod_shift_power":
                    remainder += dur[i]
                elif name == "poly.exact_div":
                    cofactor += dur[i]

        def total(name: str) -> float:
            return incl.get(name, 0.0)

        def count(name: str) -> int:
            return calls.get(name, 0)

        self_full_trace = sum((dur[i] - covered[i] for i in range(n)
                               if names[i] == "prooftrace.full_trace"), 0.0)
        out.update({
            "cli.render_s": render,
            "cli.pool_wait_s": pool,
            "eulerian.recurrence_s": total("eulerian.eulerian_recurrence"),
            "eulerian.recurrence_calls": count("eulerian.eulerian_recurrence"),
            "congruence.sides_s": total("congruence.congruence_sides"),
            "congruence.remainder_s": remainder,
            "congruence.cofactor_s": cofactor,
            "poly.mul_calls": count("poly.Poly.__mul__"),
            "poly.divmod_calls": count("poly.Poly.__divmod__"),
            "poly.max_coeff_bits": self.max_coeff_bits,
            "poly.gcd_s": total("poly.poly_gcd"),
            "poly.gcd_calls": count("poly.poly_gcd"),
            "ratfunc.init_calls": count("ratfunc.RatFunc.__init__"),
            "ratfunc.add_calls": count("ratfunc.RatFunc.__add__"),
            "series.div_s": total("series.TruncatedSeries.__truediv__"),
            "series.div_calls": count("series.TruncatedSeries.__truediv__"),
            "prooftrace.difference_s": total("prooftrace.diff_rational"),
            "prooftrace.series_coeff_s": total("prooftrace.series_difference_coeff"),
            "prooftrace.ratios_s": total("prooftrace.ratio_coeff"),
            "prooftrace.ratio_coeff_calls": count("prooftrace.ratio_coeff"),
            "prooftrace.checks_s": self_full_trace,
            "trace.spans": n,
        })
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Spans as columns: name index, start and end (s), parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            json.dump({
                **meta,
                "names": self.names,
                "name": self.name.tolist(),
                "start": [round(s - t0, 7) for s in self.start],
                "end": [round(e - t0, 7) for e in self.end],
                "parent": self.parent.tolist(),
            }, fh)


def _pool_class(tracer: Tracer) -> type:
    """ProcessPoolExecutor whose `with` block is one span, cli.pool.

    The driver does nothing inside that block but wait for the workers,
    so the span is the time it is blocked on the pool. Workers are forked
    with the wrappers removed, so they run untraced.
    """

    class TracedPool(ProcessPoolExecutor):
        def __enter__(self):
            self._span = tracer.open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._span)

    return TracedPool
