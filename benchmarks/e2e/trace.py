"""Benchmark-owned spans: wrap the layer boundaries at run time.

The program is not edited: :func:`install` replaces each boundary of
``layers.BOUNDARIES`` with a recording wrapper, in the defining module
*and* in every other ``repro`` module that bound the same function by
``from x import f`` (or stored it in a module-level dict such as the
advisor's solver table) — patching the definition alone would record
nothing for those callers.  Spans live in memory (one list per thread,
parent via a per-thread stack) and are rolled up when the workload
ends; a span's self time is its duration minus the part its child
spans cover.

Work inside worker processes and runner nodes is not wrapped: from the
parent it shows as waiting inside the executor's refill/prepare spans.
"""

import functools
import importlib
import json
import os
import sys
import threading
import time

from common import percentile

# Span record layout (a list, so the wrapper can close it in place).
BOUNDARY, START, END, PARENT, TAG = range(5)


class Recorder:
    """In-memory span store.  ``enabled`` gates recording, so set-up
    runs at full speed and forked workers (which inherit the patched
    functions) record nothing."""

    def __init__(self):
        self.enabled = False
        # Every duration read back is multiplied by this: the child sets
        # it to the box's mean speed over the timed region, so per-layer
        # times are reference seconds like the end-to-end ones.
        self.time_scale = 1.0
        self.names = []  # boundary id -> "module:attribute"
        self.layers = []  # boundary id -> layer
        self._local = threading.local()
        self._threads = []  # (thread ident, that thread's span list)
        self._lock = threading.Lock()
        self.main_thread = threading.get_ident()
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self):
        self.enabled = False

    def _thread_state(self):
        spans, stack = [], []
        self._local.state = (spans, stack)
        with self._lock:
            self._threads.append((threading.get_ident(), spans))
        return spans, stack

    def wrap(self, function, name, layer, tag=None):
        """A wrapper recording one span per call of *function*; *tag*
        maps the call's result to a label (the step kind a
        ``run_step`` call returned)."""
        boundary = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        local, clock = self._local, time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = self._thread_state()
            span = [boundary, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = function(*args, **kwargs)
                if tag is not None:
                    span[TAG] = tag(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped_boundary__ = name
        return traced

    # ------------------------------------------------------------------
    # Reading the spans back.
    # ------------------------------------------------------------------

    def thread_spans(self):
        """``(is_main_thread, spans)`` per recording thread."""
        with self._lock:
            return [(ident == self.main_thread, spans)
                    for ident, spans in self._threads]

    def durations(self, name, tag=None):
        """Durations (seconds) of every span of boundary *name*,
        optionally only those tagged *tag*."""
        wanted = {i for i, n in enumerate(self.names) if n == name}
        return [
            self.time_scale * (span[END] - span[START])
            for __, spans in self.thread_spans()
            for span in spans
            if span[BOUNDARY] in wanted and (tag is None or span[TAG] == tag)
        ]

    def rollup(self):
        """Per-layer and per-boundary totals.

        ``calls`` counts entries into a layer from outside it and
        ``busy_s`` their inclusive time; ``self_s`` is time inside the
        layer's own spans not covered by any child span.  These three
        come from the main thread only, so the layers' ``self_s`` sum
        to the covered wall; spans recorded on other threads (the
        remote backplane's per-node drainers) overlap the main thread's
        waiting and are reported apart as ``offthread_s``."""
        layer_ids = {}
        for layer in self.layers:
            layer_ids.setdefault(layer, len(layer_ids))
        layers = {
            layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                    "offthread_s": 0.0}
            for layer in layer_ids
        }
        boundaries = {
            name: {"layer": layer, "spans": 0, "total_s": 0.0}
            for name, layer in zip(self.names, self.layers)
        }
        covered = 0.0
        for is_main, spans in self.thread_spans():
            child_cover = [0.0] * len(spans)
            above = [0] * len(spans)  # bitmask of the ancestors' layers
            for index, span in enumerate(spans):
                duration = self.time_scale * (span[END] - span[START])
                layer = self.layers[span[BOUNDARY]]
                bit = 1 << layer_ids[layer]
                parent = span[PARENT]
                if parent >= 0:
                    child_cover[parent] += duration
                    parent_layer = self.layers[spans[parent][BOUNDARY]]
                    above[index] = (
                        above[parent] | 1 << layer_ids[parent_layer]
                    )
                elif is_main:
                    covered += duration
                entry = boundaries[self.names[span[BOUNDARY]]]
                entry["spans"] += 1
                entry["total_s"] += duration
                if not is_main:
                    layers[layer]["offthread_s"] += duration
                elif not above[index] & bit:
                    layers[layer]["calls"] += 1
                    layers[layer]["busy_s"] += duration
            if is_main:
                for index, span in enumerate(spans):
                    layer = self.layers[span[BOUNDARY]]
                    layers[layer]["self_s"] += (
                        self.time_scale * (span[END] - span[START])
                        - child_cover[index]
                    )
        return {"layers": layers, "boundaries": boundaries,
                "covered_s": covered}

    def p(self, q, name, tag=None):
        """Percentile *q* of boundary *name*'s span durations, in ms."""
        return 1000.0 * percentile(self.durations(name, tag), q)

    def dump(self, path):
        """Write every span as JSON: name, layer, start, end, parent
        (index within its thread) and the id of the operation — the
        root span — it belongs to."""
        threads = []
        for is_main, spans in self.thread_spans():
            ops = []
            for span in spans:
                parent = span[PARENT]
                ops.append(ops[parent] if parent >= 0 else len(ops))
            threads.append({
                "main": is_main,
                "spans": [
                    {"name": self.names[s[BOUNDARY]],
                     "layer": self.layers[s[BOUNDARY]],
                     "start": s[START], "end": s[END],
                     "parent": s[PARENT], "op": op, "tag": s[TAG]}
                    for s, op in zip(spans, ops)
                ],
            })
        with open(path, "w") as handle:
            json.dump({"threads": threads}, handle)


def _resolve(module_name, attribute):
    """``(owner, leaf name, function)`` for ``"f"`` or ``"Class.f"``."""
    owner = importlib.import_module(module_name)
    *path, leaf = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    # vars(), not getattr: a method must be patched on the class that
    # defines it, and staticmethod/classmethod wrappers are kept out.
    return owner, leaf, vars(owner)[leaf]


def install(recorder, boundaries, tags):
    """Patch every boundary of the table (a stale entry raises)."""
    # Resolve everything first: that imports every module of the table,
    # so the rebinding pass below sees all of their importers.
    resolved = [
        (module_name, attribute, layer, _resolve(module_name, attribute))
        for module_name, attribute, layer, __ in boundaries
    ]
    for module_name, attribute, layer, (owner, leaf, original) in resolved:
        name = "%s:%s" % (module_name, attribute)
        if not callable(original) or hasattr(original, "__wrapped_boundary__"):
            raise RuntimeError("boundary %s is not a plain function" % name)
        wrapper = recorder.wrap(original, name, layer, tags.get(name))
        setattr(owner, leaf, wrapper)
        if "." not in attribute:
            _rebind(original, wrapper)


def _rebind(original, wrapper):
    """Replace every other binding of a module-level function inside
    the program: ``from x import f`` names and module-level dict
    values."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (
            module_name == "repro" or module_name.startswith("repro.")
        ):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for inner, item in list(value.items()):
                    if item is original:
                        value[inner] = wrapper
