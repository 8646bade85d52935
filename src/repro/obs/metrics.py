"""The metrics registry: counters, gauges, and log-bucket histograms.

One process-wide :class:`MetricsRegistry` (owned by :mod:`repro.obs`)
is the numeric half of the telemetry backplane.  Design constraints,
in order:

* **cheap on the hot path** — an increment is one leaf-lock acquire
  plus an integer add; nothing allocates after the first touch of a
  (name, labels) child, and the cache-pool probe path pays *nothing*
  (pool counters are mirrored by collectors at scrape time, so they
  match :class:`~repro.evaluation.pool.PoolStats` exactly instead of
  being double-counted);
* **snapshot-consistent** — every mutation and every read happens
  under one registry lock (the same discipline PR 6 established for
  the evaluator memos), so a scrape never tears a histogram's
  ``sum``/``count`` pair or a mid-flight counter batch.  The registry
  lock is a *leaf*: nothing inside it calls back out, so it nests
  safely inside the pool, shard, and evaluator locks;
* **mergeable across processes** — :meth:`MetricsRegistry.drain_deltas`
  emits the counter/histogram movement since the previous drain as a
  JSON-safe payload and :meth:`MetricsRegistry.apply_deltas` folds such
  a payload in, which is how worker processes ship their telemetry to
  the parent over the wire format.

Histograms use fixed log-scale buckets (powers of four from about one
microsecond to about a minute) so latencies from a kernel sweep to a
full BIP solve land in distinct buckets without per-metric tuning.
"""

import threading
from bisect import bisect_left

from repro.obs.catalogue import COUNTER, HISTOGRAM, Family

__all__ = ["MetricsRegistry"]


class _Child:
    """One (family, label-values) time series."""

    __slots__ = ("value", "_drained")

    def __init__(self):
        self.value = 0.0
        self._drained = 0.0

    def _delta(self):
        delta = self.value - self._drained
        self._drained = self.value
        return delta


class _HistogramChild:
    """Bucket counts plus sum/count for one label set."""

    __slots__ = ("counts", "sum", "count", "_drained")

    def __init__(self, n_buckets):
        self.counts = [0] * (n_buckets + 1)  # +1: the +Inf bucket
        self.sum = 0.0
        self.count = 0
        self._drained = None  # (counts, sum, count) at last drain

    def _delta(self):
        if self._drained is None:
            prev_counts, prev_sum, prev_count = [0] * len(self.counts), 0.0, 0
        else:
            prev_counts, prev_sum, prev_count = self._drained
        delta = (
            [c - p for c, p in zip(self.counts, prev_counts)],
            self.sum - prev_sum,
            self.count - prev_count,
        )
        self._drained = (list(self.counts), self.sum, self.count)
        return delta


class _Handle:
    """The user-facing mutator for one child (bound to the registry
    lock).  A handle stays valid for the registry's lifetime; holding
    one across calls skips the family/child lookups entirely."""

    __slots__ = ("_registry", "_family", "_child")

    def __init__(self, registry, family, child):
        self._registry = registry
        self._family = family
        self._child = child

    # Counter / gauge surface.

    def inc(self, amount=1):
        with self._registry._lock:
            self._child.value += amount

    def dec(self, amount=1):
        self.inc(-amount)

    def set(self, value):
        """Set a gauge, or mirror an external monotonic counter (collector
        use): the series reports *value* as its cumulative total."""
        with self._registry._lock:
            self._child.value = value

    # Histogram surface.

    def observe(self, value):
        child = self._child
        with self._registry._lock:
            child.counts[bisect_left(self._family.buckets, value)] += 1
            child.sum += value
            child.count += 1


class _Family:
    """One named metric: type, help text, label names, children."""

    __slots__ = ("name", "kind", "help", "labelnames", "buckets",
                 "children", "_registry", "_default")

    def __init__(self, registry, spec):
        self.name = spec.name
        self.kind = spec.kind
        self.help = spec.help
        self.labelnames = tuple(spec.labelnames)
        self.buckets = spec.buckets
        self.children = {}  # label-values tuple -> child
        self._registry = registry
        self._default = None  # handle for the empty-label child

    def _child(self, labelvalues):
        child = self.children.get(labelvalues)
        if child is None:
            if self.kind == HISTOGRAM:
                child = _HistogramChild(len(self.buckets))
            else:
                child = _Child()
            self.children[labelvalues] = child
        return child

    def labels(self, **labels):
        """The handle for one label combination (created on first use)."""
        try:
            values = tuple(str(labels[name]) for name in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                "metric %r needs labels %r, got %r"
                % (self.name, self.labelnames, sorted(labels))
            ) from exc
        if len(labels) != len(self.labelnames):
            raise ValueError(
                "metric %r needs labels %r, got %r"
                % (self.name, self.labelnames, sorted(labels))
            )
        with self._registry._lock:
            return _Handle(self._registry, self, self._child(values))

    def _default_handle(self):
        if self._default is None:
            if self.labelnames:
                raise ValueError(
                    "metric %r is labeled %r; use .labels(...)"
                    % (self.name, self.labelnames)
                )
            with self._registry._lock:
                self._default = _Handle(self._registry, self, self._child(()))
        return self._default

    # Unlabeled convenience: family proxies to its empty-label child.

    def inc(self, amount=1):
        self._default_handle().inc(amount)

    def dec(self, amount=1):
        self._default_handle().dec(amount)

    def set(self, value):
        self._default_handle().set(value)

    def observe(self, value):
        self._default_handle().observe(value)


class MetricsRegistry:
    """Thread-safe named metrics plus scrape-time collectors.

    :meth:`family` creates-or-returns the family a
    :class:`~repro.obs.catalogue.Family` declares (the shipped ones are
    the constants of :mod:`repro.obs.catalogue`).  ``add_collector``
    registers a callback run at the start of every :meth:`snapshot` /
    :meth:`render_prometheus`; collectors mirror externally owned
    counters (pool stats, scheduler queue depths) into the registry at
    read time, which keeps the hot paths untouched and the mirrored
    values exact.  Bound-method collectors are held weakly, so a
    garbage-collected owner simply drops off the scrape.
    """

    def __init__(self):
        self._lock = threading.Lock()  # leaf lock: never calls out
        self._families = {}
        self._collectors = []  # weakref.WeakMethod | callable

    def family(self, spec):
        """The family *spec* declares, created on its first touch."""
        with self._lock:
            family = self._families.get(spec.name)
            if family is None:
                family = self._families[spec.name] = _Family(self, spec)
            return family

    # ------------------------------------------------------------------
    # Collectors.
    # ------------------------------------------------------------------

    def add_collector(self, callback):
        """Register a scrape-time callback (``callback(registry)``).
        Bound methods are held weakly; plain callables are held
        strongly."""
        import weakref

        if hasattr(callback, "__self__"):
            callback = weakref.WeakMethod(callback)
        with self._lock:
            self._collectors.append(callback)

    def collect(self):
        """Run every live collector.  Deliberately *not* under the
        registry lock: collectors read external state (pool locks,
        scheduler state) and write back through the normal handle API,
        so the registry lock stays a leaf."""
        import weakref

        with self._lock:
            callbacks = list(self._collectors)
        live = []
        for entry in callbacks:
            callback = entry() if isinstance(entry, weakref.WeakMethod) \
                else entry
            if callback is None:
                continue
            live.append(entry)
            callback(self)
        if len(live) != len(callbacks):
            with self._lock:
                self._collectors = [
                    c for c in self._collectors
                    if c in live or c not in callbacks
                ]

    # ------------------------------------------------------------------
    # Reading: snapshots, deltas, Prometheus text.
    # ------------------------------------------------------------------

    def snapshot(self):
        """A consistent, JSON-safe dump of every family."""
        self.collect()
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        with self._lock:
            for name, family in sorted(self._families.items()):
                if family.kind == HISTOGRAM:
                    out["histograms"][name] = {
                        "help": family.help,
                        "labelnames": list(family.labelnames),
                        "buckets": list(family.buckets),
                        "samples": [
                            {
                                "labels": dict(
                                    zip(family.labelnames, values)
                                ),
                                "bucket_counts": list(child.counts),
                                "sum": child.sum,
                                "count": child.count,
                            }
                            for values, child in sorted(
                                family.children.items()
                            )
                        ],
                    }
                else:
                    key = "counters" if family.kind == COUNTER else "gauges"
                    out[key][name] = {
                        "help": family.help,
                        "labelnames": list(family.labelnames),
                        "samples": [
                            {
                                "labels": dict(
                                    zip(family.labelnames, values)
                                ),
                                "value": child.value,
                            }
                            for values, child in sorted(
                                family.children.items()
                            )
                        ],
                    }
        return out

    def drain_deltas(self):
        """Counter and histogram movement since the previous drain, as a
        JSON-safe payload :meth:`apply_deltas` consumes.  Gauges are
        local state and never ship."""
        out = {"counters": [], "histograms": []}
        with self._lock:
            for name, family in sorted(self._families.items()):
                if family.kind == COUNTER:
                    samples = []
                    for values, child in sorted(family.children.items()):
                        delta = child._delta()
                        if delta:
                            samples.append([list(values), delta])
                    if samples:
                        out["counters"].append({
                            "name": name,
                            "help": family.help,
                            "labelnames": list(family.labelnames),
                            "samples": samples,
                        })
                elif family.kind == HISTOGRAM:
                    samples = []
                    for values, child in sorted(family.children.items()):
                        counts, total, count = child._delta()
                        if count:
                            samples.append(
                                [list(values), counts, total, count]
                            )
                    if samples:
                        out["histograms"].append({
                            "name": name,
                            "help": family.help,
                            "labelnames": list(family.labelnames),
                            "buckets": list(family.buckets),
                            "samples": samples,
                        })
        return out

    def apply_deltas(self, payload):
        """Fold a :meth:`drain_deltas` payload (typically from a worker
        process, via the wire format) into this registry."""
        for entry in payload.get("counters", ()):
            family = self.family(Family(
                entry["name"], COUNTER, entry.get("help", ""),
                tuple(entry.get("labelnames", ()))))
            with self._lock:
                for values, delta in entry["samples"]:
                    family._child(tuple(values)).value += delta
        for entry in payload.get("histograms", ()):
            family = self.family(Family(
                entry["name"], HISTOGRAM, entry.get("help", ""),
                tuple(entry.get("labelnames", ()))))
            with self._lock:
                for values, counts, total, count in entry["samples"]:
                    child = family._child(tuple(values))
                    for pos, c in enumerate(counts):
                        child.counts[pos] += c
                    child.sum += total
                    child.count += count

    def render_prometheus(self):
        """The registry in Prometheus text exposition format 0.0.4."""
        self.collect()
        lines = []
        with self._lock:
            for name, family in sorted(self._families.items()):
                if family.help:
                    lines.append(
                        "# HELP %s %s" % (name, _escape_help(family.help))
                    )
                lines.append("# TYPE %s %s" % (name, family.kind))
                for values, child in sorted(family.children.items()):
                    base = list(zip(family.labelnames, values))
                    if family.kind == HISTOGRAM:
                        running = 0
                        for bound, count in zip(
                            family.buckets, child.counts
                        ):
                            running += count
                            lines.append(_sample(
                                name + "_bucket",
                                base + [("le", _format_value(bound))],
                                running,
                            ))
                        lines.append(_sample(
                            name + "_bucket", base + [("le", "+Inf")],
                            child.count,
                        ))
                        lines.append(_sample(name + "_sum", base, child.sum))
                        lines.append(
                            _sample(name + "_count", base, child.count)
                        )
                    else:
                        lines.append(_sample(name, base, child.value))
        return "\n".join(lines) + "\n"


def _escape_help(text):
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value):
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value):
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _sample(name, labels, value):
    if labels:
        body = ",".join(
            '%s="%s"' % (key, _escape_label(val)) for key, val in labels
        )
        return "%s{%s} %s" % (name, body, _format_value(value))
    return "%s %s" % (name, _format_value(value))
