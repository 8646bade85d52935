"""One fuzz strategy for every payload kind of ``wire.SHAPES``.

:func:`neighbours` takes a real seed payload and its shape and draws the
seed itself or one of its one-mutation neighbours:

* a required key dropped — the shape rejects it;
* an optional key dropped — it loads as if it carried its default;
* a node swapped for a value its shape rejects;
* a leaf swapped for another value of the same type found elsewhere in
  the seed — the shape may accept it, which is what the named
  cross-checks (a slot on another alias, a SQL text that does not bind)
  are for;
* an unknown key added to an object — ignored.

Arrays are never thinned: a decoder cannot tell a shortened plan list
from a real one.  :func:`conforms` says whether a drawn payload has its
shape, so a fuzzer can demand a :class:`WireFormatError` for every one
that does not.

A telemetry delta also has to name families the catalogue declares:
:func:`telemetry_deltas` draws them from :mod:`repro.obs.catalogue`, so
most drawn deltas run, and mixes in names it does not declare.
"""

import copy
import math

from hypothesis import strategies as st

from repro.evaluation import wire
from repro.obs.catalogue import COUNTER, FAMILIES, HISTOGRAM
from repro.util import WireFormatError

DROP = object()  # an :func:`edited` value: delete the key

# What a node may be swapped for: each site keeps those its shape rejects.
JUNK = [None, True, False, -1, 0, 7, 2 ** 53, 1.5, -0.5, 10 ** 400,
        math.nan, math.inf, "", "x", "net-task", [], [None], ["x", "y"],
        {}, {"x": 1}]
UNKNOWN_KEY = "unknown-field"


def conforms(payload, shape):
    """Whether *payload* has *shape* (checked on a copy)."""
    try:
        wire.conform(copy.deepcopy(payload), shape, "payload")
    except WireFormatError:
        return False
    return True


def edited(seed, path, value):
    """A copy of *seed* with the node at *path* replaced by *value* (a
    new key is added; :data:`DROP` deletes the key)."""
    if not path:
        return copy.deepcopy(value)
    payload = copy.deepcopy(seed)
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return payload


def _leaves(node, out):
    if isinstance(node, dict):
        for child in node.values():
            _leaves(child, out)
    elif isinstance(node, list):
        for child in node:
            _leaves(child, out)
    elif node is not None:
        out.setdefault(type(node), set()).add(node)
    return out


def _sites(node, shape, path, lifted):
    """``(path, replacements)`` for every one-mutation site of *node*."""
    if type(shape) is tuple:  # the choice the seed takes
        shape = next(choice for choice in shape if conforms(node, choice))
    swaps = [value for value in JUNK if not conforms(value, shape)]
    if type(shape) not in (dict, list) and type(node) in lifted:
        swaps += sorted(lifted.get(type(node), set()) - {node}, key=repr)[:12]
    if swaps:
        yield path, swaps
    if type(shape) is dict:
        yield path + (UNKNOWN_KEY,), [None, 1, "x", {}]
        for key, inner in (dict.fromkeys(node, shape[str])
                           if str in shape else shape).items():
            if key in node:
                yield path + (key,), [DROP]
                if type(inner) is wire.Default:
                    inner = inner.shape
                yield from _sites(node[key], inner, path + (key,), lifted)
    elif type(shape) is list and shape:
        positional = len(shape) > 1 and shape[1] is not ...
        for position, item in enumerate(node):
            yield from _sites(item, shape[position if positional else 0],
                              path + (position,), lifted)


def stray_keys(node, shape, path=()):
    """``(path, keys)`` for every object of *node* whose keys are not
    its *shape*'s: the keys written that the shape lacks or the shape
    names that were not written.  A ``{str: s}`` object's keys are free;
    its values are checked."""
    if type(shape) is wire.Default:
        shape = shape.shape
    if type(shape) is tuple:  # the choice the node takes
        shape = next(choice for choice in shape if conforms(node, choice))
    if type(shape) is dict:
        if str in shape:
            shape = dict.fromkeys(node, shape[str])
        elif set(node) != set(shape):
            yield path, sorted(set(node) ^ set(shape))
        for key in node.keys() & shape.keys():
            yield from stray_keys(node[key], shape[key], path + (key,))
    elif type(shape) is list and shape:
        positional = len(shape) > 1 and shape[1] is not ...
        for position, item in enumerate(node):
            yield from stray_keys(item, shape[position if positional else 0],
                                  path + (position,))


def neighbours(seed, shape):
    """A strategy: *seed* (a copy) or one of its one-mutation
    neighbours.  *seed* must have *shape*."""
    assert conforms(seed, shape), "the seed must have its shape"
    sites = list(_sites(seed, shape, (), _leaves(seed, {})))
    mutated = st.sampled_from(sites).flatmap(
        lambda site: st.sampled_from(site[1]).map(
            lambda value: edited(seed, site[0], value)))
    return st.builds(copy.deepcopy, st.just(seed)) | mutated


# Family names no catalogue entry has: a gauge shipped as a counter, a
# typo, a deleted family.
UNDECLARED = ["repro_pool_entries", "repro_pool_hit_total",
              "repro_sparse_cells_total", ""]


def _family(spec, name):
    """One shipped family of *spec*'s shape, named *name*."""
    labels = st.lists(st.sampled_from(["a", "b", "worker-0"]),
                      min_size=len(spec.labelnames),
                      max_size=len(spec.labelnames))
    if spec.kind == HISTOGRAM:
        sample = st.tuples(labels, st.lists(
            st.integers(0, 3), min_size=len(spec.buckets) + 1,
            max_size=len(spec.buckets) + 1), st.floats(0, 10), st.integers(1, 9))
    else:
        sample = st.tuples(labels, st.floats(0.5, 10))
    body = {"name": name, "help": spec.help,
            "labelnames": list(spec.labelnames)}
    if spec.kind == HISTOGRAM:
        body["buckets"] = list(spec.buckets)
    return st.lists(sample.map(list), min_size=1, max_size=2).map(
        lambda samples: dict(body, samples=samples))


def telemetry_deltas():
    """A strategy: ``KIND_OBS`` payloads whose families the catalogue
    declares, shipped as declared, now and then one renamed to a name in
    :data:`UNDECLARED`."""
    def families(kind):
        specs = [spec for spec in FAMILIES.values() if spec.kind == kind]
        return st.lists(st.sampled_from(specs).flatmap(
            lambda spec: st.sampled_from([spec.name] * 4 + UNDECLARED)
            .flatmap(lambda name: _family(spec, name))), max_size=3)

    return st.builds(lambda counters, histograms: {
        "kind": wire.KIND_OBS, "counters": counters,
        "histograms": histograms, "spans": []},
        families(COUNTER), families(HISTOGRAM))
