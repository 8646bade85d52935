"""Shared pieces of the e2e ledger: names, sizes, clocks, digests.

Nothing here imports ``repro`` — the orchestrator (``run.py``) and
``compare.py`` use it without paying the program's import, and the
child adds ``src`` to ``sys.path`` itself before importing the program.
"""

import bisect
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import time
from datetime import datetime, timezone

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = (
    "whatif_session",
    "recommend_offline",
    "online_ingest",
    "online_evict",
    "fleet_offload",
)

# Reference seconds (see SpeedMeter) of timed region each workload's
# full (scale 1.0) size takes on the 2-core reference box at the seed
# commit.  ``--seconds S`` runs a workload at scale S / NOMINAL_S: the
# work is a fixed function of (seed, seconds), never of how fast the
# program happens to be, so two commits always measure the same inputs.
NOMINAL_S = {
    "whatif_session": 16.0,
    "recommend_offline": 18.5,
    "online_ingest": 15.5,
    "online_evict": 13.0,
    "fleet_offload": 23.0,  # inline reference leg + the two fan-out legs
}

SMOKE_SCALE = 0.05
SETUP_REPEATS = 3  # setup_s is the median over this many child set-ups
FAN_OUT = 2  # worker processes / loopback runner connections, never more

# End-to-end metric -> unit.  ``BENCHMARK.json`` declares the first six
# to the PR driver, which needs every workload to report every metric,
# none ever 0, each steady from seed to seed.  The suite run adds the
# other two: ``op_p99_ms`` only where it rests on P99_MIN_SAMPLES (ten
# beyond it), and ``fail_frac``, which the driver contract carries as
# ``failed``/``attempted``.
E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "op_p99_ms": "ms",
    "fail_frac": "ratio",
}
P99_MIN_SAMPLES = 1000


def scale_for(workload, seconds):
    return seconds / NOMINAL_S[workload]


def percentile(values, q):
    """Nearest-rank percentile (``q`` in 0..100) of *values*; below
    ``100 / (100 - q)`` samples that is the maximum, which is why every
    result also states its sample count."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return percentile(values, 50)


def digest(payload):
    """sha256 of *payload*'s canonical JSON (floats by ``repr``, so the
    digest moves iff a result bit moves)."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


_TICK = os.sysconf("SC_CLK_TCK")


def _proc_cpu_s(pid):
    """user+sys CPU of a live, unreaped process from ``/proc`` (there is
    no psutil here).  Fields 14/15 of ``stat`` follow the parenthesised
    command name, which may itself contain spaces."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _TICK


def cpu_seconds(pids=()):
    """CPU this process has bought so far: its own threads, every child
    it has reaped (``ProcessStepExecutor`` workers after ``close()``),
    and the live runner subprocesses in *pids*."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return total + sum(_proc_cpu_s(pid) for pid in pids)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Seconds one SpeedMeter probe takes on the reference box (2-core Xeon
# @ 2.1 GHz, CPython 3.11, address randomisation off) at full speed.
REFERENCE_PROBE_S = 0.00042


class _Point:
    __slots__ = ("x", "y")

    def __init__(self):
        self.x = self.y = 0

    def move(self, step):
        self.x += step
        self.y ^= step
        return self.x


def _probe():
    """A fixed piece of pure-Python work, deliberately mixed: integer
    arithmetic, dict and set stores, a sort, string formatting, method
    calls, and a burst of small allocations.  The mix is calibrated:
    compute-bound loops alone slow down *more* than the program when
    the box is slow (the planner slowed 0.88x as much) and allocation
    alone *less* (1.23x); in this proportion the probe tracked 30
    planner calls with elasticity 1.02 while the box's speed swung by
    a factor of 1.7.  It must never call the program: a faster planner
    must not speed up the yardstick it is measured with."""
    x, table = 0, {}
    for i in range(1500):
        x += i * i % 7
        table[i & 63] = x
    values = [(i * 7919) % 1013 for i in range(600)]
    values.sort()
    text = ",".join("%d:%.2f" % (v, v * 0.5) for v in values[:150])
    pairs = set()
    for i in range(400):
        pairs.add((i % 17, i % 13))
    point = _Point()
    for i in range(800):
        point.move(i)
    records = [(i, str(i), [i]) for i in range(750)]
    by_name = {record[1]: record for record in records}
    return x + len(text) + len(pairs) + point.x + len(by_name)


class SpeedMeter:
    """Tracks how fast this box is running Python right now, so times
    can be reported in *reference seconds*.

    The sandbox's cores switch between two speeds about 28 % apart,
    staying in one for tens of seconds: an identical run reads 6.5 s or
    8.5 s depending on when it starts, which is wider than any bound
    worth setting.  The workloads therefore interleave a fixed probe
    with their operations (every ``MIN_GAP_S`` at most; about 5 % of
    the wall) and each stretch of wall clock between two probes is
    scaled by ``REFERENCE_PROBE_S / probe time``.  Probe time itself is
    excluded.  Ten identical what-if runs then agree to 1-2 %.
    """

    MIN_GAP_S = 0.03

    def __init__(self):
        self._starts = []  # probe start times
        self._ends = []
        self._costs = []  # best-of-three probe seconds
        self._last = 0.0

    def tick(self, force=False):
        clock = time.perf_counter
        started = clock()
        if not force and started - self._last < self.MIN_GAP_S:
            return
        best = math.inf
        for __ in range(3):  # best of three: immune to one preemption
            t0 = clock()
            _probe()
            best = min(best, clock() - t0)
        self._last = clock()
        self._starts.append(started)
        self._ends.append(self._last)
        self._costs.append(best)

    def reference_seconds(self, start, end):
        """The interval ``[start, end]`` in reference seconds: probe
        time removed, every stretch between two probes scaled by the
        mean of the probes at its two ends."""
        costs = self._costs
        if not costs:
            return end - start
        index = bisect.bisect_right(self._starts, start)
        before = costs[max(0, index - 1)]
        cursor, total = start, 0.0
        while index < len(costs) and self._starts[index] < end:
            after = costs[index]
            total += max(0.0, self._starts[index] - cursor) * (
                2 * REFERENCE_PROBE_S / (before + after))
            cursor, before = self._ends[index], after
            index += 1
        after = costs[index] if index < len(costs) else before
        total += max(0.0, end - cursor) * (
            2 * REFERENCE_PROBE_S / (before + after))
        return total

    def probe_seconds(self, start, end):
        """Wall (= CPU: the probe is a busy loop) spent probing inside
        ``[start, end]``."""
        return sum(e - s for s, e in zip(self._starts, self._ends)
                   if s >= start and e <= end)

    def speed(self, start, end):
        """Mean speed of the box over the interval (1.0 = reference)."""
        raw = end - start - self.probe_seconds(start, end)
        return self.reference_seconds(start, end) / raw if raw > 0 else 1.0


def box_speed(probes=15):
    """How fast the box is running right now (1.0 = reference), from a
    burst of probes — what set-up time is scaled by."""
    meter = SpeedMeter()
    for __ in range(probes):
        meter.tick(force=True)
    return REFERENCE_PROBE_S / median(meter._costs)


class Region:
    """The timed region between ``__enter__`` and ``__exit__``: wall
    and CPU, both in reference seconds of *meter*, probes excluded."""

    def __init__(self, meter, pids=()):
        self.meter = meter
        self.pids = tuple(pids)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.speed = 1.0

    def __enter__(self):
        self.meter.tick(force=True)
        self._cpu = cpu_seconds(self.pids)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.end = time.perf_counter()
        cpu = cpu_seconds(self.pids) - self._cpu
        self.meter.tick(force=True)
        self.speed = self.meter.speed(self.start, self.end)
        self.wall_s = self.meter.reference_seconds(self.start, self.end)
        self.cpu_s = self.speed * (
            cpu - self.meter.probe_seconds(self.start, self.end))


def run_meta():
    """The ``meta`` block of ``benchmarks/conftest.py``'s convention
    (timestamp, git SHA, CPU count, python), re-implemented here so the
    harness imports nothing from outside its own directory."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def load_benchmark_json():
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)
