"""The reach census in tier-1 (``tests/reach_census.py``): the reasons
file names live definitions only, each with a reason, and the recorder
sees code wherever a run puts it — a thread, a forked child that leaves
through ``os._exit``, a child stopped by ``SIGTERM``.

Running every entry point takes a minute, so the census itself is CI's
``reach-census`` job, not a test here."""

import signal
import subprocess
import sys

import pytest

import option_census
import reach_census

needs_qualname = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the recorder reads co_qualname")

PACKAGE = '''
import os
import threading


def in_thread():
    pass


def in_fork():
    pass


def until_term():
    print("ready", flush=True)
    threading.Event().wait()


def never():
    pass


class Shape:
    def method(self):
        def nested():
            return 1
        return nested()


def main(mode):
    if mode == "thread":
        thread = threading.Thread(target=in_thread)
        thread.start()
        thread.join()
    elif mode == "fork":
        pid = os.fork()
        if pid == 0:
            in_fork()
            os._exit(0)
        os.waitpid(pid, 0)
    elif mode == "term":
        until_term()
    else:
        Shape().method()
'''


def test_every_entry_is_a_live_def_with_a_reason():
    reasons = option_census.load(reach_census.RECORDED)
    defs = reach_census.defined()
    assert sorted(set(reasons) - set(defs)) == []
    for key, reason in reasons.items():
        assert reason.strip(), key
        assert "only test" not in reason.lower(), key


def test_the_file_is_one_sorted_entry_per_line():
    with open(reach_census.RECORDED) as handle:
        assert handle.read() == option_census.render(
            option_census.load(reach_census.RECORDED))


@pytest.fixture
def package(tmp_path):
    path = tmp_path / "src" / "pkg"
    path.mkdir(parents=True)
    (path / "__init__.py").write_text("")
    (path / "mod.py").write_text(PACKAGE)
    return str(path)


def test_keys_are_module_and_qualname(package):
    assert sorted(reach_census.defined(package)) == [
        "pkg.mod:Shape.method", "pkg.mod:Shape.method.<locals>.nested",
        "pkg.mod:in_fork", "pkg.mod:in_thread", "pkg.mod:main",
        "pkg.mod:never", "pkg.mod:until_term",
    ]


def recorded(package, mode):
    """What the recorder saw while ``pkg.mod.main(mode)`` ran in a
    child; ``term`` is stopped by ``SIGTERM`` once it is waiting."""
    argv = [sys.executable, "-c",
            "import sys, pkg.mod; pkg.mod.main(sys.argv[1])", mode]
    with reach_census.recording(package) as rec:
        child = subprocess.Popen(argv, env=rec.env, stdout=subprocess.PIPE,
                                 text=True)
        if mode == "term":
            assert child.stdout.readline().strip() == "ready"
            child.send_signal(signal.SIGTERM)
        child.communicate(timeout=60)
        assert child.returncode == (-signal.SIGTERM if mode == "term" else 0)
        return rec.collect()


@needs_qualname
@pytest.mark.parametrize("mode, ran", [
    ("thread", "pkg.mod:in_thread"),
    ("fork", "pkg.mod:in_fork"),
    ("term", "pkg.mod:until_term"),
])
def test_the_recorder_sees_every_process_and_thread(package, mode, ran):
    keys = recorded(package, mode)
    assert {ran, "pkg.mod:main"} <= keys
    assert "pkg.mod:never" not in keys


@needs_qualname
def test_recorded_keys_match_the_defs(package):
    """A method and a def nested in it are keyed as ``defined`` keys
    them (module and class bodies are recorded too, and ignored)."""
    keys = recorded(package, "shape") & set(reach_census.defined(package))
    assert keys == {"pkg.mod:main", "pkg.mod:Shape.method",
                    "pkg.mod:Shape.method.<locals>.nested"}



@needs_qualname
def test_the_hook_chains_to_the_sitecustomize_it_shadows(package, tmp_path,
                                                         monkeypatch):
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text("import sys\nsys.chained = True\n")
    monkeypatch.setenv("PYTHONPATH", str(site))
    argv = [sys.executable, "-c",
            "import sys, pkg.mod; pkg.mod.main('shape'); "
            "print(getattr(sys, 'chained', False))"]
    with reach_census.recording(package) as rec:
        done = subprocess.run(argv, env=rec.env, capture_output=True,
                              text=True, timeout=60, check=True)
        keys = rec.collect()
    assert done.stdout.strip() == "True"
    assert "pkg.mod:Shape.method" in keys


PROPERTY = '''
class Box:
    @property
    def size(self):
        return self._size

    @size.setter
    def size(self, value):
        self._size = value
'''


def test_a_property_and_its_setter_are_one_key(tmp_path):
    path = tmp_path / "src" / "pkg"
    path.mkdir(parents=True)
    (path / "__init__.py").write_text("")
    (path / "box.py").write_text(PROPERTY)
    assert reach_census.defined(str(path)) == {"pkg.box:Box.size": 4}


DEFINED = reach_census.defined  # ``check`` stubs the module's


def check(monkeypatch, tmp_path, package, ran, reasons, *argv):
    """``main(argv)``'s status and the reasons file after it, with the
    entry points stubbed to have run the keys *ran* of *package*."""
    recorded = tmp_path / "reach.json"
    recorded.write_text(option_census.render(reasons))
    defs = DEFINED(package)
    monkeypatch.setattr(reach_census, "RECORDED", str(recorded))
    monkeypatch.setattr(reach_census, "defined", lambda: defs)
    monkeypatch.setattr(reach_census, "reached",
                        lambda: {key: {"cli": 1} for key in ran})
    return reach_census.main(list(argv)), option_census.load(str(recorded))


RAN = ["pkg.mod:Shape.method", "pkg.mod:Shape.method.<locals>.nested",
       "pkg.mod:in_fork", "pkg.mod:in_thread", "pkg.mod:main",
       "pkg.mod:until_term"]


@needs_qualname
@pytest.mark.parametrize("ran, reasons, stale", [
    (RAN, {"pkg.mod:never": "kept"}, None),
    (RAN + ["pkg.mod:never"], {"pkg.mod:never": "kept"},
     "pkg.mod:never: used in cli 1; drop its entry"),
    (RAN, {"pkg.mod:never": "kept", "pkg.mod:gone": "kept"},
     "pkg.mod:gone: no longer exists; drop its entry"),
    (RAN[:-1], {"pkg.mod:never": "kept"},
     "pkg.mod:until_term: nothing uses it and no reason says why it stays"),
], ids=["clean", "runs-now", "gone", "unexplained"])
def test_the_check_refuses_a_stale_or_unexplained_entry(
        package, tmp_path, monkeypatch, capsys, ran, reasons, stale):
    status, __ = check(monkeypatch, tmp_path, package, ran, reasons)
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("STALE ")]
    assert lines == ([] if stale is None else ["STALE " + stale])
    assert status == (0 if stale is None else 1)


@needs_qualname
def test_write_keeps_reasons_and_adds_new_never_run_functions_empty(
        package, tmp_path, monkeypatch):
    reasons = {"pkg.mod:never": "kept", "pkg.mod:in_fork": "was dead",
               "pkg.mod:gone": "deleted"}
    status, written = check(monkeypatch, tmp_path, package, RAN[:-1],
                            reasons, "--write")
    assert status == 0
    assert written == {"pkg.mod:never": "kept", "pkg.mod:until_term": ""}
    status, __ = check(monkeypatch, tmp_path, package, RAN[:-1], written)
    assert status == 1  # the empty reason is refused
