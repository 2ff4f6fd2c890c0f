"""Layer tracing from outside the library, for the traced benchmark run.

``Tracer.install`` wraps every public function of each ``transduce`` layer
module and rebinds the wrapper in every ``transduce`` module namespace that
binds the original.  Python resolves module globals at call time, so a call
from one library function to another (``power_sweep`` calling
``peak_field_from_power``) goes through the wrapper and becomes a child span,
with no change to the library.  ``uninstall`` restores every binding.

Spans live in memory as tuples ``(span_id, name_id, start_ns, end_ns,
parent_id, request)``, appended when they end, and are written out once, at
the end of the run.  Tuples of integers keep the garbage collector from
scanning them, which would bill the tracer's own memory to the program.  Leaf helpers called many times
per request are counted but get no span (see ``COUNT_ONLY``), and so does
every ``tensors`` function: its time stays in the parent span.  Construction
of ``units.Quantity`` objects is counted by wrapping ``Quantity.__init__``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

LAYERS = ("units", "tensors", "materials", "estimator", "phasematch", "thermo", "cli")

COUNT_ONLY = {"eta1_rel", "wavevector_optical", "wavevector_acoustic",
              "pm_efficiency", "fd_partial", "eval_free_energy", "stress_of",
              "efield_of", "extract_eta2", "eval_free_energy_vector",
              "stress_of_vector", "efield_of_vector"}
QUANTITY = "units.Quantity"


def _index_key(m, wavelength, axis=2):
    return (m.name, wavelength, axis)


def _delta_k_key(pm_in):
    return (pm_in.bands, pm_in.material.name, pm_in.length,
            pm_in.poling_period, pm_in.poling_sign)


# Functions whose distinct inputs per request are recorded, to measure how
# much of their work repeats within one request.
DISTINCT_KEYS = {"materials.refractive_index": _index_key,
                 "phasematch.delta_k": _delta_k_key}


class Tracer:
    """Spans, per-request counts and errors for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.spans: list[tuple[int, ...]] = []
        self.errors: Counter = Counter()
        self.requests: list[dict] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._frames: list[str] = []
        self._counts: Counter = Counter()
        self._distinct: dict[str, set] = {}
        self._request = -1
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return self._ids[name]

    def _leaving(self, layer: str) -> None:
        # An exception leaves the layer when the caller is in another layer.
        if len(self._frames) < 2 or self._frames[-2] != layer:
            self.errors[layer] += 1

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        nid = self._id(name, layer)
        key_of = DISTINCT_KEYS.get(name)
        counts, frames = self._counts, self._frames

        if fn.__name__ in COUNT_ONLY or layer == "tensors":
            @functools.wraps(fn)
            def counted(*args, **kw):
                counts[name] += 1
                frames.append(layer)
                try:
                    return fn(*args, **kw)
                except BaseException:
                    self._leaving(layer)
                    raise
                finally:
                    frames.pop()
            return counted

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def spanned(*args, **kw):
            counts[name] += 1
            if key_of is not None:
                self._distinct.setdefault(name, set()).add(key_of(*args, **kw))
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            frames.append(layer)
            start = perf_counter_ns()
            try:
                return fn(*args, **kw)
            except BaseException:
                self._leaving(layer)
                raise
            finally:
                spans.append((span_id, nid, start, perf_counter_ns(), parent,
                              self._request))
                stack.pop()
                frames.pop()
        return spanned

    def begin_request(self, request: int) -> None:
        self._request = request
        self._counts.clear()
        self._distinct.clear()

    def end_request(self, **info) -> None:
        info["counts"] = dict(self._counts)
        info["distinct"] = {k: len(v) for k, v in self._distinct.items()}
        self.requests.append(info)
        self._request = -1

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"transduce.{layer}")
            for obj in list(vars(mod).values()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not obj.__name__.startswith("_")):
                    wrappers[obj] = self._wrap(obj, layer)
        for modname in [n for n in sys.modules
                        if n == "transduce" or n.startswith("transduce.")]:
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        quantity = importlib.import_module("transduce.units").Quantity
        init, counts = quantity.__init__, self._counts

        def counted_init(obj, *args, **kw):
            counts[QUANTITY] += 1
            init(obj, *args, **kw)
        self._patches.append((quantity, "__init__", init))
        quantity.__init__ = counted_init

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def table(self) -> dict[str, np.ndarray]:
        """Per-span arrays: name id, request, duration, self and layer self.

        ``self`` is the duration minus the time the span's children cover.
        ``layer_self`` subtracts only the time spent in other layers, so a
        layer's own nested calls (``verify_relations`` calling
        ``verify_relations_pair``) stay in the caller's figure.
        """
        arr = np.asarray(sorted(self.spans), dtype=np.int64).reshape(-1, 6)[:, 1:]
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3]
        children = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], dur[has_parent])
        layer = [self.layer_of[n] for n in arr[:, 0]]
        # Sorted by span id, row i is span i, and children start after their
        # parent, so a reverse sweep sees every span's descendants first.
        other = np.zeros_like(dur)
        for i in range(len(arr) - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                other[p] += dur[i] if layer[p] != layer[i] else other[i]
        return {"name": arr[:, 0], "request": arr[:, 4], "dur": dur,
                "self": dur - children, "layer_self": dur - other}

    def function_summary(self, table: dict[str, np.ndarray]) -> dict[str, dict]:
        out = {}
        for nid, name in enumerate(self.names):
            sel = table["name"] == nid
            if not sel.any():
                continue
            out[name] = {"layer": self.layer_of[nid], "spans": int(sel.sum()),
                         "dur_ns": int(table["dur"][sel].sum()),
                         "self_ns": int(table["self"][sel].sum()),
                         "layer_self_ns": int(table["layer_self"][sel].sum())}
        return out

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, nid, start, end, parent, request in sorted(self.spans):
                fh.write(json.dumps({"id": span_id, "name": self.names[nid], "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "request": request}) + "\n")
