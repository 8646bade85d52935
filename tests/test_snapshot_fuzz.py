"""Snapshot files as a trust boundary (ROADMAP item 4(d)).

``serve --state-dir`` reads ``service.json`` back on start, so whatever
is in that file reaches :meth:`TuningService.restore`,
:meth:`TenantSession.from_snapshot`, :meth:`ColtTuner.restore_state`
and :func:`wire.event_from_wire`.  Hypothesis takes a real mid-run
snapshot of two tenants — one with events still buffered in the
scheduler — and draws its one-mutation neighbours from the service
shape of ``wire.SHAPES`` (``tests/shapes.py``): a key dropped, a node
swapped for a value its shape rejects or a leaf for one lifted from
elsewhere in the file, an unknown key added.  Through ``load_state``
each file must either

* raise a typed :class:`~repro.util.ReproError` with the service's
  tenants, queue depths and snapshot exactly as before — a retry starts
  clean, and ``serve`` prints ``error:`` instead of a traceback; or
* restore, after which every restored tenant runs the rest of its
  stream to completion.

A file the shape rejects is always the first branch, with a
:class:`~repro.util.WireFormatError`.

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

from repro.colt import ColtSettings
from repro.evaluation import wire
from repro.service import TuningService
from repro.util import ReproError
from repro.workloads import DriftPhase, drifting_stream, sdss
from repro.workloads import sdss_catalog as make_sdss

from shapes import DROP, conforms, edited, neighbours
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


def _at(node, path):
    for key in path:
        node = node[key]
    return node


SHAPE = wire.SHAPES[wire.KIND_SERVICE]


OPTIONS_PATH = ("tenants", 0, "session", "options")


def check(payload, dump=json.dumps):
    """Load *payload*, written by *dump*, as a state file next to a
    registered bystander; returns what happened, for the statistics."""
    service = make_service()
    service.add_tenant("bystander", "sdss", **OPTIONS)
    before = (service.queue_depths(), service.snapshot())
    with tempfile.TemporaryDirectory() as state_dir:
        with open(os.path.join(state_dir, "service.json"), "w") as f:
            f.write(dump(payload))
        try:
            restored = service.load_state(state_dir)
        except ReproError as exc:
            assert list(service._tenants) == ["bystander"]
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
    assert BASE["scheduler"]["pending"]["t0"]  # the examples' paths
    assert len(BASE["tenants"][1]["session"]["tuner"]["candidates"]) > 2
    assert check(copy.deepcopy(BASE)) == "restored"


def test_a_nesting_bomb_state_file_is_refused_typed():
    """JSON nested deeper than the decoder recurses is a wire error,
    nothing registered — not a ``RecursionError``."""
    assert check("[" * 100_000, dump=str) == "refused: WireFormatError"


@given(payload=neighbours(BASE, SHAPE))
# The cases found before the restore path checked its input: an
# untyped error after a tenant was registered, or a traceback.
@example(payload=edited(BASE, ("scheduler", "pending", "t0", 0), ["x"]))
@example(payload=edited(BASE, ("scheduler", "pending", "t0"), "ab"))
@example(payload=edited(BASE, ("tenants", 0, "session", "options"), DROP))
@example(payload=edited(BASE, ("tenants", 1), "x"))
@example(payload=edited(BASE, ("tenants", 0, "session", "queries"), "7"))
# Found by this test: a restored candidate that clashes with the index
# of the same name the tuner harvests later in the run.
@example(payload=edited(BASE, ("tenants", 1, "session", "tuner",
                               "candidates", 2, "index", "unique"), True))
def test_mangled_snapshot_fails_typed_or_runs_to_completion(payload):
    result = check(payload)
    event(result)
    if not conforms(payload, SHAPE):
        assert result == "refused: WireFormatError"


def test_a_snapshot_resumes_to_the_uninterrupted_outcome():
    """A mid-run snapshot, restored into a fresh service, runs the rest
    of every stream to exactly the answer of a run that was never
    interrupted."""
    uninterrupted = make_service()
    for name in SEEDS:
        uninterrupted.add_tenant(name, "sdss", **OPTIONS)
    uninterrupted.run_scheduled({name: stream(name) for name in SEEDS})

    resumed = make_service()
    assert set(resumed.restore(copy.deepcopy(BASE))) == set(SEEDS)
    resumed.run_scheduled({
        name: itertools.islice(stream(name), resumed.stream_offset(name),
                               None)
        for name in SEEDS
    })
    for name in SEEDS:
        assert outcome(resumed.tenant(name)) == \
            outcome(uninterrupted.tenant(name)), name


@pytest.mark.parametrize("change, error", [
    (dict(epoch_length=0), "DesignError"),
    (dict(min_whatif_budget=41), "DesignError"),
    # A count field of the shape is a non-negative integer already.
    (dict(epoch_length=-3), "WireFormatError"),
    (dict(space_budget_pages=-1), "WireFormatError"),
])
def test_colt_settings_the_tuner_cannot_run_on_are_refused(change, error):
    """COLT settings outside their bounds (``whatif_budget`` is 40): a
    typed error, nothing registered."""
    payload = copy.deepcopy(BASE)
    settings = _at(payload, OPTIONS_PATH)["colt_settings"]
    assert settings["whatif_budget"] == 40
    settings.update(change)
    assert check(payload) == "refused: " + error
