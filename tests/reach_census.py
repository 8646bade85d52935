"""The reach census: every function ``src/repro`` defines, and whether a
shipped entry point runs it.

A *function* is a ``def`` of ``src/repro`` — module level, a method, or
nested in another ``def`` — keyed ``module:qualname``
(``repro.cophy.bip:build_bip``, ``repro.net.runner:RunnerNode.start``,
``repro.obs.trace:Tracer.span.<locals>.close``).  It *runs* when a
shipped entry point enters it in any process the entry point starts:
forked workers, ``runner`` nodes and the threads of each included.  The
entry points are the shipped surfaces (:data:`ENTRY_POINTS`):

* the perf ledger, ``benchmarks/e2e/run.py --smoke``;
* every CLI subcommand, ``recommend`` under each solver, ``serve``
  stopped mid-stream and resumed on a ``--state-dir`` (also with
  ``--snapshot-interval``), with ``--offload 2``, against two ``runner
  --listen`` nodes, and with ``--metrics-port`` scraped once per page;
* every script under ``examples/``.

``tests/`` and ``benchmarks/*.py`` are not entry points: a test or a
claim bench does not justify shipping a function.

Every function no entry point runs needs one line of reason in
``tests/data/reach.json``; an entry whose function now runs, or no
longer exists, is stale.  The file's length is the ratchet.

    python tests/reach_census.py           # run every entry point, check
    python tests/reach_census.py --write   # regenerate the reasons file

``--write`` keeps the reasons already written and gives each newly
never-run function an empty one, which the check rejects.

The recorder (:func:`install`) is a ``sys.setprofile`` and
``threading.setprofile`` hook that notes the code object of each Python
frame entered.  :func:`recording` puts it into every interpreter a run
starts through a temporary ``sitecustomize`` directory on
``PYTHONPATH``; that hook chains to any other ``sitecustomize`` on the
path.  Each process writes what it saw into the recording's directory at
interpreter exit, at ``os._exit`` (a forked worker ends there) and on
``SIGTERM`` (how a supervisor stops a listening runner).  Qualnames come from
``co_qualname``, so the census needs Python 3.11 or later.
"""

import argparse
import ast
import atexit
import contextlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

import option_census

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TESTS = os.path.join(ROOT, "tests")
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
RECORDED = os.path.join(TESTS, "data", "reach.json")
OUT_VARIABLE = "REACH_CENSUS_OUT"
PACKAGE_VARIABLE = "REACH_CENSUS_PACKAGE"
TIMEOUT_S = 900
METRICS_HOLD_S = 5  # long enough for three scrapes of a finished run

SITECUSTOMIZE = '''\
import importlib.machinery
import importlib.util
import os
import sys

sys.path.insert(0, %(tests)r)
try:
    import reach_census
finally:
    del sys.path[0]
reach_census.install(os.environ[%(out)r], os.environ[%(package)r])

# Chain to the sitecustomize this directory shadows, if there is one.
_here = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.machinery.PathFinder.find_spec(
    "sitecustomize",
    [p for p in sys.path if os.path.abspath(p or os.curdir) != _here])
if _spec is not None:
    _spec.loader.exec_module(importlib.util.module_from_spec(_spec))
'''


def install(out_dir, package):
    """Record every function of *package* (a directory under a ``src``
    directory) this process enters, and write the ``module:qualname``
    keys to a file in *out_dir* when the process ends."""
    root = os.path.dirname(os.path.dirname(package))
    prefix = os.path.join(package, "")
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        keys = sorted({
            "%s:%s" % (option_census._module_name(root, code.co_filename),
                       code.co_qualname)
            for code in frozenset(seen)
            if code.co_filename.startswith(prefix)})
        path = os.path.join(out_dir, "%d.json" % os.getpid())
        with open(path, "w") as handle:
            json.dump(keys, handle)

    exit_now = os._exit

    def exit_after_dump(status):
        dump()
        exit_now(status)

    def dump_on_term(signum, frame):
        dump()
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    os._exit = exit_after_dump
    atexit.register(dump)
    signal.signal(signal.SIGTERM, dump_on_term)
    threading.setprofile(profile)
    sys.setprofile(profile)


class Recording:
    """A recorder for every interpreter started with :attr:`env`; what
    they ran is :meth:`collect`."""

    def __init__(self, directory, package):
        self.out = os.path.join(directory, "out")
        hook = os.path.join(directory, "hook")
        os.makedirs(self.out)
        os.makedirs(hook)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE % {"tests": TESTS, "out": OUT_VARIABLE,
                                          "package": PACKAGE_VARIABLE})
        path = [hook, os.path.dirname(package), os.environ.get("PYTHONPATH")]
        self.env = dict(os.environ, PYTHONUNBUFFERED="1",
                        PYTHONPATH=os.pathsep.join(p for p in path if p),
                        **{OUT_VARIABLE: self.out, PACKAGE_VARIABLE: package})

    def collect(self):
        """The keys every process of the recording entered, and forget
        them."""
        keys = set()
        for name in os.listdir(self.out):
            path = os.path.join(self.out, name)
            with open(path) as handle:
                keys.update(json.load(handle))
            os.remove(path)
        return keys


@contextlib.contextmanager
def recording(package=PACKAGE):
    with tempfile.TemporaryDirectory(prefix="reach-") as directory:
        yield Recording(directory, package)


# The entry points: each runs its commands under a recording's env.

CLI = [sys.executable, "-m", "repro"]
SMALL = ["--scale", "0.05", "--queries", "12", "--seed", "1"]
SERVE = ["--scale", "0.01", "--queries", "6", "--seed", "1", "serve",
         "--tenants", "2", "--shards", "2", "--phase-length", "5",
         "--epoch", "5"]
EXPLAINED = (
    "SELECT ra, dec FROM photoobj WHERE ra < 10 ORDER BY dec",
    "SELECT p.ra, s.z FROM photoobj p, specobj s "
    "WHERE p.objid = s.bestobjid AND s.z > 4.5",
    "SELECT type, COUNT(*) FROM photoobj WHERE ra < 10 "
    "GROUP BY type ORDER BY type LIMIT 5",
)


def run(env, *argv):
    subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=TIMEOUT_S,
                   stdout=subprocess.DEVNULL)


def start(env, *argv):
    return subprocess.Popen(argv, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE)


def await_line(process, pattern):
    """The match of *pattern* on the first line of *process*'s output
    that has one."""
    for line in process.stdout:
        match = re.search(pattern, line)
        if match:
            return match
    raise RuntimeError("%r never printed %r" % (process.args, pattern))


def stop(process, signum):
    process.send_signal(signum)
    process.communicate(timeout=TIMEOUT_S)


def ledger(env):
    run(env, sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
        "--smoke")


def cli_reads(env):
    run(env, *CLI, *SMALL, "describe")
    run(env, *CLI, *SMALL, "evaluate", "--indexes", "photoobj:ra,dec",
        "specobj:z")
    for solver in ("greedy", "milp", "colgen"):
        run(env, *CLI, *SMALL, "recommend", "--solver", solver)
    for sql in EXPLAINED:
        run(env, *CLI, *SMALL, "explain", "--sql", sql)
    run(env, *CLI, *SMALL, "drops", "--indexes", "photoobj:ra")


def cli_online(env):
    run(env, *CLI, *SMALL, "online", "--phase-length", "30", "--epoch", "15")
    run(env, *CLI, *SMALL, "stream", "--phase-length", "30", "--epoch", "15",
        "--refresh-every", "20", "--window", "20")
    run(env, *CLI, *SERVE, "--refresh-every", "10")


def cli_resume(env):
    for extra in ([], ["--snapshot-interval", "3"]):
        with tempfile.TemporaryDirectory(prefix="state-") as state:
            flags = ["--refresh-every", "0", "--state-dir", state, *extra]
            run(env, *CLI, *SERVE, *flags, "--max-events", "8")
            run(env, *CLI, *SERVE, *flags, "--format", "json")


def cli_fleet(env):
    run(env, *CLI, *SERVE, "--refresh-every", "0", "--offload", "2",
        "--format", "json")
    runners = [start(env, *CLI, "runner", "--listen", "127.0.0.1:0")
               for __ in range(2)]
    try:
        addresses = [await_line(r, r"listening on (\S+)").group(1)
                     for r in runners]
        run(env, *CLI, *SERVE, "--refresh-every", "0",
            "--runners", ",".join(addresses))
    finally:
        # Ctrl-C, as a person stops a node, and SIGTERM, as a
        # supervisor does (the recorder dumps on it).
        stop(runners[0], signal.SIGINT)
        stop(runners[1], signal.SIGTERM)


def cli_metrics(env):
    import urllib.request  # here, not in every recorded interpreter

    serve = start(env, *CLI, *SERVE, "--refresh-every", "0",
                  "--metrics-port", "0", "--metrics-hold", str(METRICS_HOLD_S))
    try:
        url = await_line(serve, r"metrics: (\S+)/metrics").group(1)
        await_line(serve, r"runtime:")
        for page in ("metrics", "trace", "status"):
            with urllib.request.urlopen("%s/%s" % (url, page),
                                        timeout=60) as response:
                response.read()
    finally:
        serve.communicate(timeout=TIMEOUT_S)  # the hold ends, then stop()


def examples(env):
    directory = os.path.join(ROOT, "examples")
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            run(env, sys.executable, os.path.join(directory, name))


ENTRY_POINTS = (
    ("ledger", ledger),
    ("cli", cli_reads),
    ("cli", cli_online),
    ("cli", cli_resume),
    ("cli", cli_fleet),
    ("cli", cli_metrics),
    ("examples", examples),
)


def reached():
    """``{key: {group: entry points of the group that ran it}}``."""
    out = {}
    with recording() as rec:
        for group, entry in ENTRY_POINTS:
            began = time.monotonic()
            entry(rec.env)
            keys = rec.collect()
            print("ran %-8s %-12s %4d functions  %5.1f s" % (
                group, entry.__name__, len(keys), time.monotonic() - began),
                file=sys.stderr)
            for key in keys:
                groups = out.setdefault(key, {})
                groups[group] = groups.get(group, 0) + 1
    return out


# The census: every def, and whether an entry point ran it.

def defined(package=PACKAGE):
    """``{module:qualname: lines}`` for every ``def`` under *package*
    (a directory under a ``src`` directory); a name defined twice (a
    property's setter) sums its definitions."""
    root = os.path.dirname(os.path.dirname(package))
    out = {}

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = scope + child.name
                key = "%s:%s" % (module, name)
                out[key] = out.get(key, 0) \
                    + child.end_lineno - child.lineno + 1
                walk(child, module, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, scope + child.name + ".")
            else:
                walk(child, module, scope)

    for path in option_census._python_files(os.path.dirname(package),
                                            os.path.basename(package)):
        walk(option_census._parse(path),
             option_census._module_name(root, path), "")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate %s" % os.path.relpath(RECORDED, ROOT))
    args = parser.parse_args(argv)
    if sys.version_info < (3, 11):
        parser.error("the recorder reads co_qualname: Python 3.11 or later")
    lines = defined()
    ran = reached()
    found = {key: ran.get(key, {}) for key in lines}  # {}: never run
    reasons = option_census.load(RECORDED) \
        if os.path.exists(RECORDED) else {}
    never = sorted(key for key, groups in found.items() if not groups)
    for key in never:
        print("%-72s %s" % (key, reasons.get(key, "?")))
    print("reach: %d defs, %d never run (%d lines)" % (
        len(found), len(never), sum(lines[key] for key in never)))
    if args.write:
        with open(RECORDED, "w") as handle:
            handle.write(option_census.render(
                {key: reasons.get(key, "") for key in never}))
        return 0
    problems = option_census.problems(found, reasons)
    for line in problems:
        print("STALE " + line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
