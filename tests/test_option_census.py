"""The option census in tier-1 (``tests/option_census.py``): every
option nothing outside ``tests/`` sets has a reason in
``tests/data/options.json``, and no entry there is stale."""

import os

import option_census

CLI = '''
import argparse


def build_parser():
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.1)
    sub = parser.add_subparsers(dest="command")
    serve = sub.add_parser("serve")
    serve.add_argument("--tenants", type=int, default=4)
    return parser
'''

MODULE = '''
def f(x, knob=1, *, flag=False):
    return x


def _private(x, knob=1):
    return x


class Base:
    def __init__(self, a, b=2):
        self.a = a

    def run(self, x, y=3):
        return x

    def _hidden(self, z=4):
        return z


class Child(Base):
    pass


class _Private:
    def __init__(self, c=5):
        self.c = c
'''


def tree(tmp_path, callers, tests=""):
    """A checkout holding MODULE, CLI, *callers* under ``benchmarks/`` and
    *tests* under ``tests/``."""
    for path, text in (("src/repro/mod.py", MODULE),
                       ("src/repro/designer/cli.py", CLI),
                       ("benchmarks/bench_x.py", callers),
                       ("tests/test_x.py", tests)):
        path = tmp_path / path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return str(tmp_path)


def test_the_checkout_agrees_with_its_reasons():
    assert option_census.problems(option_census.census(),
                                  option_census.load()) == []


def test_the_file_is_one_sorted_entry_per_line():
    """What ``--write`` renders, so its length is the entry count."""
    with open(option_census.RECORDED) as handle:
        assert handle.read() == option_census.render(option_census.load())


def test_options_are_public_defaulted_parameters_and_flags(tmp_path):
    found = option_census.census(tree(tmp_path, ""))
    assert sorted(found) == [
        "cli --scale", "cli serve --tenants",
        "repro.mod:Base.__init__.b", "repro.mod:Base.run.y",
        "repro.mod:f.flag", "repro.mod:f.knob",
    ]


def test_a_call_sets_an_option_by_keyword_or_position(tmp_path):
    found = option_census.census(tree(tmp_path, (
        "f(1, 2)\n"
        "Child(1, b=2).run(0)\n"
        "Base(0).run(1, 2)\n"
        "main(['--scale=0.5', 'serve'])\n"
    )))
    assert found == {
        "cli --scale": {"benchmarks": 1},
        "cli serve --tenants": {},
        "repro.mod:Base.__init__.b": {"benchmarks": 1},
        "repro.mod:Base.run.y": {"benchmarks": 1},
        "repro.mod:f.flag": {},
        "repro.mod:f.knob": {"benchmarks": 1},
    }


def test_a_new_option_nothing_sets_needs_a_reason(tmp_path):
    """A test setting it does not count; an empty reason is no reason."""
    root = tree(tmp_path, "Base(1, 2).run(1, 2)\n",
                tests="f(1, 2, flag=True)\n"
                      "main(['serve', '--tenants', '2'])\n")
    found = option_census.census(root)
    reasons = {"cli --scale": "a DBA knob", "repro.mod:f.flag": " "}
    assert option_census.problems(found, reasons) == [
        "cli serve --tenants: nothing sets it and no reason says why it "
        "stays",
        "repro.mod:f.flag: nothing sets it and no reason says why it stays",
        "repro.mod:f.knob: nothing sets it and no reason says why it stays",
    ]


def test_an_entry_is_stale_once_its_option_is_set_or_gone(tmp_path):
    found = option_census.census(tree(tmp_path, "f(1, knob=2)\n"))
    reasons = {option: "kept" for option in found}
    reasons["repro.mod:gone.knob"] = "kept"
    assert option_census.problems(found, reasons) == [
        "repro.mod:f.knob: set in benchmarks 1; drop its entry",
        "repro.mod:gone.knob: no such option; drop its entry",
    ]


def test_write_keeps_reasons_and_adds_new_options_empty(tmp_path,
                                                        monkeypatch):
    root = tree(tmp_path, "")
    recorded = os.path.join(root, "options.json")
    with open(recorded, "w") as handle:
        handle.write(option_census.render({"repro.mod:f.knob": "kept"}))
    monkeypatch.setattr(option_census, "ROOT", root)
    monkeypatch.setattr(option_census, "RECORDED", recorded)
    assert option_census.main(["--write"]) == 0
    written = option_census.load(recorded)
    assert written["repro.mod:f.knob"] == "kept"
    assert written["cli serve --tenants"] == ""
    assert option_census.main([]) == 1  # the empty reasons are refused


def test_src_holds_no_code_only_tests_name():
    """Code nothing shipped reaches lives in ``tests/`` (the executor,
    the row generator, the reference implementations), not in ``src/``;
    there is no exemption list."""
    assert option_census.reached_only_by_tests() == []


def test_src_reads_no_environment_variable():
    assert option_census.environment_reads() == []


EXTRA = '''
def recurse(n):
    return recurse(n - 1) if n else 0


class Node:
    def copy(self):
        return Node()


def _helper():
    return 0
'''


def test_a_definition_named_only_by_itself_or_tests_is_test_only(tmp_path):
    """A re-export in a package ``__init__`` and a name inside the
    definition itself do not count; a subclass, a call or an import
    elsewhere does."""
    root = tree(tmp_path, "build_parser()\nChild(1).run(0)\n",
                tests="f(1)\nrecurse(2)\n")
    (tmp_path / "src/repro/extra.py").write_text(EXTRA)
    (tmp_path / "src/repro/__init__.py").write_text(
        "from repro.extra import Node, recurse\nfrom repro.mod import f\n"
        "__all__ = ['Node', 'f', 'recurse']\n")
    assert sorted(option_census.reached_only_by_tests(root)) == [
        "repro.extra:Node", "repro.extra:Node.copy", "repro.extra:recurse",
        "repro.mod:f"]
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples/demo.py").write_text(
        "from repro.extra import recurse\nimport repro\nrepro.f(1)\n")
    assert option_census.reached_only_by_tests(root) == [
        "repro.extra:Node", "repro.extra:Node.copy"]


HANDLER = '''
from http.server import BaseHTTPRequestHandler


class Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        return self.extra()

    def log_message(self, *args):
        pass

    def extra(self):
        return 0


class Plain:
    def used(self):
        return 0

    def lonely(self):
        return 1
'''


def test_a_method_named_only_by_tests_is_test_only(tmp_path):
    """A method is reached like a function — by a call or an attribute
    — or by a ledger boundary string; a docstring or a prose string
    naming it does not reach it.  The methods of a class extending a
    library's class are reached by that library."""
    root = tree(tmp_path, "build_parser()\nHandler\nPlain().used()\n"
                          "Child(1)\nf\nSTEP = 'mod:Base.run'\n"
                          "NOTE = 'use Plain.lonely'\n",
                tests="Plain().lonely()\n")
    (tmp_path / "src/repro/handler.py").write_text(
        HANDLER + '\n\ndef doc():\n    """See :meth:`Plain.lonely`."""\n')
    assert option_census.reached_only_by_tests(root) == [
        "repro.handler:Plain.lonely", "repro.handler:doc"]
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples/ledger.py").write_text(
        "doc()\nBOUNDARY = 'repro.handler:Plain.lonely'\n")
    assert option_census.reached_only_by_tests(root) == []


def test_a_docstring_or_string_does_not_reach_a_function(tmp_path):
    """The module-level rule counts code only: a test-only function or
    class that a ``src`` docstring or string mentions is still
    test-only, even in a boundary-shaped string."""
    root = tree(tmp_path, '"""Call f or Child.run; see helper()."""\n'
                          "build_parser()\nChild(1).run(0)\n"
                          "NOTE = 'helper is for tests'\n"
                          "WRAP = 'repro.extra:Extra.helper'\n",
                tests="helper()\n")
    (tmp_path / "src/repro/extra.py").write_text(
        "def helper():\n    return 0\n")
    assert option_census.reached_only_by_tests(root) == [
        "repro.extra:helper", "repro.mod:f"]


def test_an_environment_read_in_src_is_refused(tmp_path):
    root = tree(tmp_path, "import os\nos.environ.get('X')\n")
    assert option_census.environment_reads(root) == []
    (tmp_path / "src/repro/env.py").write_text(
        "import os\nfrom os import getenv\n\n"
        "LEVEL = os.environ.get('LEVEL')\nDEBUG = os.getenv('DEBUG')\n")
    assert option_census.environment_reads(root) == [
        os.path.join("src", "repro", "env.py") + ":%d" % line
        for line in (2, 4, 5)]


SETTINGS = '''
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class Knobs:
    size: int
    cost: float = 1.0
    flag: bool = False
    seen: list = field(default_factory=list, init=False)
    _state: dict = field(default_factory=dict)

    @classmethod
    def cheap(cls):
        return cls(1, 0.5)


@dataclass
class MoreKnobs(Knobs):
    extra: int = 0


def decode(payload):
    return Knobs(**{f.name: payload[f.name] for f in fields(Knobs)})
'''


def test_defaulted_dataclass_fields_are_options(tmp_path):
    """Set by keyword, by position, through ``cls(...)`` or a subclass;
    a splat rebuilt from ``fields(Cls)`` only decodes and sets nothing;
    ``init=False`` and private fields are no options."""
    root = tree(tmp_path, "MoreKnobs(1, extra=2)\n")
    (tmp_path / "src/repro/knobs.py").write_text(SETTINGS)
    assert sorted(p.option for p in option_census.dataclass_fields(root)) == [
        "repro.knobs:Knobs.cost", "repro.knobs:Knobs.flag",
        "repro.knobs:MoreKnobs.extra"]
    found = option_census.census(root)
    assert found["repro.knobs:Knobs.cost"] == {"src": 1}  # cls(1, 0.5)
    assert found["repro.knobs:Knobs.flag"] == {}
    assert found["repro.knobs:MoreKnobs.extra"] == {"benchmarks": 1}
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples/demo.py").write_text("MoreKnobs(1, 2.0, True)\n")
    assert option_census.census(root)["repro.knobs:Knobs.flag"] == {
        "examples": 1}


def test_src_names_only_declared_telemetry():
    assert option_census.undeclared_names() == []


def test_an_undeclared_metric_or_span_name_is_refused(tmp_path):
    root = tree(tmp_path, "")
    (tmp_path / "src/repro/obs").mkdir()
    (tmp_path / "src/repro/obs/catalogue.py").write_text(
        "HITS = _family(COUNTER, 'repro_hits_total', 'Hits')\n"
        "SPAN_STEP = _span('step')\n")
    (tmp_path / "src/repro/use.py").write_text(
        '"""Names ``repro_docs_total`` in a docstring: not a literal."""\n'
        "registry.family(HITS)\n"
        "tracer.span(SPAN_STEP)\n"
        "tracer.span('step')\n"
        "tracer.span('other.step', tag=1)\n"
        "registry.value('repro_hits_total')\n"
        "registry.value('repro_misses_total')\n")
    assert option_census.undeclared_names(root) == [
        os.path.join("src", "repro", "use.py") + ":5 other.step",
        os.path.join("src", "repro", "use.py") + ":7 repro_misses_total"]
