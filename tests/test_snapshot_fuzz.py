"""Snapshot files as a trust boundary (ROADMAP item 4(d)).

``serve --state-dir`` reads ``service.json`` back on start, so whatever
is in that file reaches :meth:`TuningService.restore`,
:meth:`TenantSession.from_snapshot`, :meth:`ColtTuner.restore_state`
and :func:`wire.event_from_wire`.  Hypothesis takes a real mid-run
snapshot of two tenants — one with events still buffered in the
scheduler — and mangles it at every depth: a field deleted, replaced
with any JSON value (or one lifted from elsewhere in the file), or an
unknown key added.  Through ``load_state`` each mangled file must either

* raise a typed :class:`~repro.util.ReproError` with the service's
  tenants, queue depths and snapshot exactly as before — a retry starts
  clean, and ``serve`` prints ``error:`` instead of a traceback; or
* restore, after which every restored tenant runs the rest of its
  stream to completion.

Example budgets come from the hypothesis profile (``tests/conftest.py``;
``--hypothesis-profile=ci`` for ten times more).
"""

import copy
import itertools
import json
import os
import tempfile

import pytest
from hypothesis import event, example, given
from hypothesis import strategies as st

from repro.colt import ColtSettings
from repro.evaluation import wire
from repro.service import TuningService
from repro.util import ReproError
from repro.workloads import DriftPhase, drifting_stream, sdss
from repro.workloads import sdss_catalog as make_sdss

from test_runtime import outcome

PHASES = (
    DriftPhase("positional", 5, ((sdss.template("cone_search"), 1.0),)),
    DriftPhase("photometric", 5, ((sdss.template("magnitude_cut"), 1.0),)),
)
OPTIONS = dict(
    colt_settings=ColtSettings(epoch_length=3, space_budget_pages=50_000),
    recommend_every=4, window=5,
)
SEEDS = {"t0": 3, "t1": 8}
CATALOG = make_sdss(scale=0.01)


def stream(name):
    return drifting_stream(PHASES, seed=SEEDS.get(name, 3))


def make_service():
    service = TuningService(shards=1)
    service.add_backplane("sdss", CATALOG)
    return service


def _mid_run_snapshot():
    """A pause-point snapshot taken mid-stream, with every section the
    restore path reads non-empty: candidates, epochs, drift events,
    recommendations and a scheduler buffer."""
    service = make_service()
    for name in SEEDS:
        service.add_tenant(name, "sdss", **OPTIONS)
    captured = []
    service.run_scheduled(
        {name: stream(name) for name in SEEDS},
        snapshot_interval=7, lookahead=3, on_snapshot=captured.append,
    )
    payload = next(
        p for p in captured
        if p["scheduler"]["pending"]
        and all(t["session"]["recommendations"] for t in p["tenants"])
    )
    return json.loads(wire.dumps(payload))


BASE = _mid_run_snapshot()


def _paths(node, path=()):
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


PATHS = list(_paths(BASE))
LIFTED = [_at(BASE, path) for path in PATHS if path]  # values of the file

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=5,
)


def mangle(path, action, value):
    payload = copy.deepcopy(BASE)
    if not path:
        return value if action == "replace" else payload
    parent, key = _at(payload, path[:-1]), path[-1]
    if action == "delete":
        del parent[key]
    elif action == "replace":
        parent[key] = value
    elif isinstance(parent[key], dict):  # "insert": an unknown key
        parent[key]["unknown-field"] = value
    return payload


# What an earlier build wrote into every session's options for the four
# tenant options that are now constants (``budget_frac`` was never
# written): a file that carries them restores iff it names these values.
PARENT_KEYS = dict(solver="greedy", refresh_on_drift=True, partitions=False)


def parent_format(payload, **change):
    payload = copy.deepcopy(payload)
    for entry in payload["tenants"]:
        entry["session"]["options"].update(PARENT_KEYS, **change)
    return payload


OPTIONS_PATH = ("tenants", 0, "session", "options")
PARENT_OPTIONS = _at(parent_format(BASE), OPTIONS_PATH)


def check(payload):
    """Load *payload* as a state file next to a registered bystander;
    returns what happened, for the statistics."""
    service = make_service()
    service.add_tenant("bystander", "sdss", **OPTIONS)
    before = (service.queue_depths(), service.snapshot())
    with tempfile.TemporaryDirectory() as state_dir:
        with open(os.path.join(state_dir, "service.json"), "w") as f:
            f.write(json.dumps(payload))
        try:
            restored = service.load_state(state_dir)
        except ReproError as exc:
            assert [s.name for s in service.tenants] == ["bystander"]
            assert (service.queue_depths(), service.snapshot()) == before
            return "refused: %s" % type(exc).__name__
    service.run_scheduled({
        name: itertools.islice(stream(name), service.stream_offset(name),
                               None)
        for name in restored
    })
    for name in restored:
        assert service.tenant(name).status()["finished"], name
    return "restored"


def test_base_snapshot_restores_and_finishes():
    """The unmangled file is the property's second branch."""
    assert len(PATHS) > 300
    assert BASE["scheduler"]["pending"]["t0"]  # the examples' paths
    assert len(BASE["tenants"][1]["session"]["tuner"]["candidates"]) > 2
    assert check(mangle((), "keep", None)) == "restored"


@given(
    path=st.sampled_from(PATHS),
    action=st.sampled_from(["delete", "replace", "insert"]),
    value=JSON | st.sampled_from(LIFTED),
)
# The cases found before the restore path checked its input: an
# untyped error after a tenant was registered, or a traceback.
@example(path=("scheduler", "pending", "t0", 0), action="replace",
         value=["x"])
@example(path=("scheduler", "pending", "t0"), action="replace", value="ab")
@example(path=("tenants", 0, "session", "options"), action="delete",
         value=None)
@example(path=("tenants", 1), action="replace", value="x")
@example(path=("tenants", 0, "session", "queries"), action="replace",
         value="7")
# Found by this test: a restored candidate that clashes with the index
# of the same name the tuner harvests later in the run.
@example(path=("tenants", 1, "session", "tuner", "candidates", 2, "index",
               "unique"), action="replace", value=True)
# A file naming a tenant option this build runs at one value only.
@example(path=OPTIONS_PATH, action="replace", value=PARENT_OPTIONS)
@example(path=OPTIONS_PATH, action="replace",
         value=dict(PARENT_OPTIONS, refresh_on_drift=False))
@example(path=OPTIONS_PATH, action="replace",
         value=dict(PARENT_OPTIONS, solver="milp"))
def test_mangled_snapshot_fails_typed_or_runs_to_completion(
        path, action, value):
    event(check(mangle(path, action, value)))


def test_parent_format_snapshot_restores_to_the_uninterrupted_outcome():
    """A snapshot written before the tenant options became constants —
    its options carrying them at their values — resumes to exactly the
    answer of a run that was never interrupted."""
    assert not PARENT_KEYS.keys() & _at(BASE, OPTIONS_PATH).keys()
    uninterrupted = make_service()
    for name in SEEDS:
        uninterrupted.add_tenant(name, "sdss", **OPTIONS)
    uninterrupted.run_scheduled({name: stream(name) for name in SEEDS})

    resumed = make_service()
    assert set(resumed.restore(parent_format(BASE))) == set(SEEDS)
    resumed.run_scheduled({
        name: itertools.islice(stream(name), resumed.stream_offset(name),
                               None)
        for name in SEEDS
    })
    for name in SEEDS:
        assert outcome(resumed.tenant(name)) == \
            outcome(uninterrupted.tenant(name)), name


@pytest.mark.parametrize("change", [
    dict(refresh_on_drift=False), dict(solver="milp"), dict(partitions=True),
    dict(refresh_on_drift=1), dict(solver="lp-rounding"),
])
def test_a_snapshot_naming_another_policy_is_refused(change):
    """The file names a behaviour this build cannot run: a typed error,
    with nothing registered (``check`` asserts the bystander is alone)."""
    assert check(parent_format(BASE, **change)) == "refused: WireFormatError"
