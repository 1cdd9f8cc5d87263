"""Spans around calls into fermichain's layers, recorded from outside.

The tracer replaces module attributes (``wkb.integrate``, ``exact.diagonalize``,
``cli.RUNNERS["density"]``, ...) with timing wrappers, so calls made inside
a module are captured as well as calls from the benchmark.  A span is
recorded only while an op is active; a function already on the stack is
called through without a new span, so recursion (``numerics.integrate``
splitting a doubly singular interval) counts once.  Spans are kept in
memory and written out by :meth:`Tracer.save` when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("profiles", "numerics", "exact", "wkb", "analytic", "cli")

# Public functions wrapped per layer; every analytic function is wrapped
# under the single name "analytic".
WRAPPED = {
    "profiles": ("make_builtin", "from_config", "load_custom", "band_bounds"),
    "numerics": ("integrate", "find_root", "eigensolve_tridiagonal"),
    "exact": ("diagonalize", "filled_state", "correlation_matrix",
              "density_exact", "entanglement_entropy", "localize_eigenfunction"),
    "wkb": ("classified_regions", "wells", "phase", "density_of_states",
            "filling_fraction", "invert_filling", "density_profile",
            "wkb_wavefunction", "envelope", "well_frequencies",
            "wkb_correlation_kernel"),
    "cli": ("main", "run_spectrum", "run_density", "run_filling_curve",
            "run_envelope", "run_frequencies", "run_reproduce"),
}


class Tracer:
    """Span log of wrapped calls; aggregates are computed from the log."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []             # open span ids
        self.modes_bytes = 0                    # computed: 8 N^2 per diagonalize
        self.op = -1                            # current op id; -1 records nothing
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_op = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._restore: list = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def wrap(self, fn, name: str, on_call=None):
        i = self._id(name)

        def traced(*args, **kwargs):
            if self.op < 0 or self._depth[i]:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            stack = self._stack
            sid = len(self._span_start)
            self._span_name.append(i)
            self._span_parent.append(stack[-1] if stack else -1)
            self._span_op.append(self.op)
            stack.append(sid)
            self._depth[i] += 1
            t0 = perf_counter()
            self._span_start.append(t0)
            self._span_end.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._span_end[sid] = perf_counter()
                self._depth[i] -= 1
                stack.pop()

        return traced

    def install(self, fc) -> None:
        """Wrap the layer functions in every fermichain module that binds them."""
        layers = {layer: importlib.import_module(f"{fc.__name__}.{layer}") for layer in LAYERS}
        modules = [fc, *layers.values()]

        def patch_everywhere(orig, wrapper):
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)

        def count_modes(args, kwargs):
            p = args[0] if args else kwargs["p"]
            self.modes_bytes += 8 * p.num_sites ** 2

        for layer, funcs in WRAPPED.items():
            mod = layers[layer]
            for f in funcs:
                orig = getattr(mod, f)
                hook = count_modes if (layer, f) == ("exact", "diagonalize") else None
                patch_everywhere(orig, self.wrap(orig, f"{layer}.{f}", hook))
        for attr, val in list(vars(layers["analytic"]).items()):
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == layers["analytic"].__name__):
                patch_everywhere(val, self.wrap(val, "analytic"))
        cli = layers["cli"]
        for table, prefix in ((cli.RUNNERS, None), (cli.REPRODUCE_TARGETS, "cli.target.")):
            for key, orig in list(table.items()):
                wrapper = getattr(cli, orig.__name__) if prefix is None else \
                    self.wrap(orig, prefix + key)
                self._restore.append((table, key, orig))
                table[key] = wrapper

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    @property
    def num_spans(self) -> int:
        return len(self._span_start)

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._span_name, dtype=np.int32),
            "parent": np.array(self._span_parent, dtype=np.int32),
            "op": np.array(self._span_op, dtype=np.int32),
            "start": np.array(self._span_start, dtype=np.float64),
            "end": np.array(self._span_end, dtype=np.float64),
        }

    def summary(self, first_op: int = 0) -> "Summary":
        """Aggregate the spans whose op id is at least ``first_op``."""
        return Summary(self.names, self.spans(), first_op)

    def save(self, path) -> None:
        """Write the span log: name index, parent span, op id, start, end (s)."""
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


class Summary:
    """Calls, inclusive and self time per span name over a set of ops.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans add up to the time covered by
    the outermost spans.
    """

    def __init__(self, names: list[str], spans: dict[str, np.ndarray], first_op: int):
        keep = spans["op"] >= first_op
        idx = np.flatnonzero(keep)
        dur = spans["end"] - spans["start"]
        parent = spans["parent"]
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self.names = names
        n = len(names)
        name = spans["name"][idx]
        self.calls = np.bincount(name, minlength=n)
        self.incl = np.bincount(name, weights=dur[idx], minlength=n)
        self.self_time = np.bincount(name, weights=dur[idx] - child[idx], minlength=n)
        roots = idx[parent[idx] < 0]
        self.root_time = float(dur[roots].sum())
        p = parent[idx]
        with_parent = p >= 0
        pair = spans["name"][p[with_parent]] * n + name[with_parent]
        self._pairs = np.bincount(pair, minlength=n * n).reshape(n, n)
        self._index = {nm: i for i, nm in enumerate(names)}

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive ms, self ms); zeros for a name never called."""
        i = self._index.get(name)
        if i is None:
            return 0, 0.0, 0.0
        return int(self.calls[i]), 1e3 * float(self.incl[i]), 1e3 * float(self.self_time[i])

    def child_calls(self, parent: str, child: str) -> int:
        a, b = self._index.get(parent), self._index.get(child)
        return 0 if a is None or b is None else int(self._pairs[a, b])

    def layer_self_ms(self, layer: str) -> float:
        return 1e3 * float(sum(t for nm, t in zip(self.names, self.self_time)
                               if nm == layer or nm.startswith(layer + ".")))
