"""The option census: every option the code offers, and who sets it.

An *option* is a defaulted parameter of a public ``def`` in
``src/repro`` — a function or method, ``__init__`` included, whose
module, class and own name have no leading underscore — or an
``add_argument`` flag of ``designer/cli.py``.  A caller *sets* one when
a call in ``src/``, ``benchmarks/`` or ``examples/`` passes it, by
keyword or by position, or, for a flag, when a string there (not a
docstring) names it.
``tests/`` is never scanned: a test does not justify an option.

Every option nothing sets needs one line of reason in
``tests/data/options.json``; an entry whose option gained a caller or
no longer exists is stale.  The file's length is the ratchet.

    python tests/option_census.py          # every option, callers per dir
    python tests/option_census.py --write  # regenerate the file

``--write`` keeps the reasons already written and gives each newly
unset option an empty one, which ``tests/test_option_census.py``
rejects: a change that adds an option nothing sets says why.

Calls are matched by the callee's name alone (``f(...)``,
``obj.f(...)``; ``Class(...)`` and ``super().__init__(...)`` for an
``__init__``), and ``*args`` / ``**kwargs`` at a call count as setting
everything they could reach, so the census errs towards "set".

Two more rules keep ``src/`` the shipped designer and nothing else,
with no exemptions:

* every public module-level ``def`` or ``class`` of ``src/repro`` is
  named — as a name, an attribute or an import — somewhere in
  ``src/``, ``benchmarks/`` or ``examples/`` outside its own definition
  and a package ``__init__``'s re-export of it
  (:func:`reached_only_by_tests`); code only tests reach belongs in
  ``tests/``;
* no ``src/repro`` module reads ``os.environ`` or ``os.getenv``
  (:func:`environment_reads`): a setting is a parameter or a flag,
  which the census above counts.
"""

import argparse
import ast
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "repro")
CLI = os.path.join(PACKAGE, "designer", "cli.py")
CALLER_DIRS = ("src", "benchmarks", "examples")
RECORDED = os.path.join(ROOT, "tests", "data", "options.json")


def _python_files(root, top):
    for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as handle:
        return ast.parse(handle.read(), path)


def _module_name(root, path):
    parts = os.path.relpath(path, os.path.join(root, "src"))[:-3].split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public(name):
    return not name.startswith("_")


def _bases(node):
    return [base.id if isinstance(base, ast.Name) else
            base.attr if isinstance(base, ast.Attribute) else None
            for base in node.bases]


class _Parameter:
    """One defaulted parameter and the calls that can reach it."""

    def __init__(self, option, callees, position, skip):
        self.option = option
        self.name = option.rsplit(".", 1)[1]
        self.callees = callees  # the names a call to it goes by
        self.position = position  # index among positionals, or None
        self.skip = skip  # leading positionals a call does not pass


def _defaulted(function):
    """``(name, positional index or None)`` per defaulted parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, pos) for pos, arg in enumerate(positional)
           if pos >= first]
    out += [(arg.arg, None) for arg, default in
            zip(args.kwonlyargs, args.kw_defaults) if default is not None]
    return out


def _constructors(name, classes):
    """The names a call to ``name.__init__`` goes by: the class and
    every subclass that inherits that ``__init__``."""
    names = {name}
    grew = True
    while grew:
        grew = False
        for other, (bases, has_init) in classes.items():
            if other not in names and not has_init \
                    and names.intersection(bases):
                names.add(other)
                grew = True
    return names


def declared(root):
    """Every defaulted parameter of a public ``def`` in ``src/repro``."""
    modules = [(path, _parse(path)) for path in _python_files(root, PACKAGE)]
    classes = {
        node.name: (_bases(node), any(
            isinstance(item, ast.FunctionDef) and item.name == "__init__"
            for item in node.body))
        for __, tree in modules for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    out = []
    for path, tree in modules:
        module = _module_name(root, path)
        if not all(map(_public, module.split("."))):
            continue
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _public(node.name):
                out += [_Parameter("%s:%s.%s" % (module, node.name, name),
                                   {node.name}, pos, 0)
                        for name, pos in _defaulted(node)]
            if not (isinstance(node, ast.ClassDef) and _public(node.name)):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    callees = _constructors(node.name, classes)
                elif _public(item.name):
                    callees = {item.name}
                else:
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                out += [_Parameter("%s:%s.%s.%s" % (module, node.name,
                                                    item.name, name),
                                   callees, pos, 0 if static else 1)
                        for name, pos in _defaulted(item)]
    return out


def _calls(tree):
    """``(call, bases of the enclosing class or None)`` for every call."""
    def walk(node, bases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, bases
            yield from walk(child, _bases(child)
                            if isinstance(child, ast.ClassDef) else bases)
    return walk(tree, None)


def _callees(call, bases):
    """``(name, leading positionals that are not the callee's)`` per
    name the call goes by; ``super().__init__(...)`` and
    ``Base.__init__(self, ...)`` go by the enclosing class's bases."""
    func = call.func
    if isinstance(func, ast.Name):
        return [(func.id, 0)]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "__init__" and bases is not None:
        owner = func.value
        if isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name) \
                and owner.func.id == "super":
            return [(base, 0) for base in bases]
        if isinstance(owner, ast.Name) and owner.id in bases:
            return [(owner.id, 1)]
    return [(func.attr, 0)]


def _sets(call, extra, parameter):
    """Whether *call*, whose first *extra* positionals are not the
    callee's, passes *parameter*."""
    positional = call.args[extra:]
    if parameter.position is not None and (
            parameter.position - parameter.skip < len(positional)
            or any(isinstance(arg, ast.Starred) for arg in positional)):
        return True
    return any(keyword.arg in (None, parameter.name)
               for keyword in call.keywords)


def flags(root):
    """``(option, flag)`` per ``add_argument`` flag of the CLI; the
    option names the subcommand that owns the flag."""
    tree = _parse(os.path.join(root, CLI))
    commands = {
        target.id: node.value.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Attribute)
        and node.value.func.attr == "add_parser"
        for target in node.targets
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "add_argument":
            command = commands.get(node.func.value.id)
            prefix = "cli" if command is None else "cli " + command
            out += [("%s %s" % (prefix, arg.value), arg.value)
                    for arg in node.args
                    if isinstance(arg, ast.Constant)
                    and arg.value.startswith("-")]
    return out


def census(root=ROOT):
    """Option -> ``{caller directory: call sites there that set it}``
    (empty when nothing does)."""
    parameters = declared(root)
    by_callee = {}
    for parameter in parameters:
        for name in parameter.callees:
            by_callee.setdefault(name, []).append(parameter)
    cli_flags = flags(root)
    found = {option: {} for option in
             [p.option for p in parameters] + [o for o, __ in cli_flags]}

    def count(option, top):
        found[option][top] = found[option].get(top, 0) + 1

    for top in CALLER_DIRS:
        for path in _python_files(root, top):
            tree = _parse(path)
            for call, bases in _calls(tree):
                for name, extra in _callees(call, bases):
                    for parameter in by_callee.get(name, ()):
                        if _sets(call, extra, parameter):
                            count(parameter.option, top)
            if path == os.path.join(root, CLI):
                continue
            docstrings = {id(node.value) for node in ast.walk(tree)
                          if isinstance(node, ast.Expr)}
            words = {word.split("=", 1)[0]
                     for node in ast.walk(tree)
                     if isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     and id(node) not in docstrings
                     for word in node.value.split()}
            for option, flag in cli_flags:
                if flag in words:
                    count(option, top)
    return found


def _names(tree, reexports):
    """``(name, line)`` for every name, attribute and imported name in
    *tree*; a package ``__init__`` (*reexports*) does not name what it
    imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and not reexports:
            yield from ((alias.name, node.lineno) for alias in node.names)


def reached_only_by_tests(root=ROOT):
    """``module:name`` per public module-level ``def`` or ``class`` in
    ``src/repro`` that nothing in ``src/``, ``benchmarks/`` or
    ``examples/`` names outside its own definition."""
    named = {}
    for top in CALLER_DIRS:
        for path in _python_files(root, top):
            reexports = os.path.basename(path) == "__init__.py"
            for name, line in _names(_parse(path), reexports):
                named.setdefault(name, []).append((path, line))

    def named_elsewhere(node, path):
        return any(where != path or not
                   node.lineno <= line <= node.end_lineno
                   for where, line in named.get(node.name, ()))

    out = []
    for path in _python_files(root, PACKAGE):
        module = _module_name(root, path)
        if not all(map(_public, module.split("."))):
            continue
        out += ["%s:%s" % (module, node.name) for node in _parse(path).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and _public(node.name) and not named_elsewhere(node, path)]
    return out


ENVIRONMENT = ("environ", "getenv")


def _reads_environment(node):
    if isinstance(node, ast.Attribute):
        return node.attr in ENVIRONMENT and isinstance(node.value, ast.Name) \
            and node.value.id == "os"
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(
            alias.name in ENVIRONMENT for alias in node.names)
    return False


def environment_reads(root=ROOT):
    """``path:line`` per read of ``os.environ`` or ``os.getenv`` in
    ``src/repro``, by attribute or by ``from os import``."""
    out = []
    for path in _python_files(root, PACKAGE):
        lines = {node.lineno for node in ast.walk(_parse(path))
                 if _reads_environment(node)}
        out += ["%s:%d" % (os.path.relpath(path, root), line)
                for line in sorted(lines)]
    return out


def load(path=RECORDED):
    with open(path) as handle:
        return json.load(handle)


def render(reasons):
    """One entry per line, so the file's length is its entry count."""
    return json.dumps(reasons, indent=0, sort_keys=True,
                      ensure_ascii=False) + "\n"


def _where(callers):
    return ", ".join("%s %d" % item for item in sorted(callers.items()))


def problems(found, reasons):
    """One line per disagreement between a census and its reasons."""
    lines = []
    for option, callers in sorted(found.items()):
        if callers and option in reasons:
            lines.append("%s: set in %s; drop its entry"
                         % (option, _where(callers)))
        elif not callers and not reasons.get(option, "").strip():
            lines.append("%s: nothing sets it and no reason says why it "
                         "stays" % option)
    lines += ["%s: no such option; drop its entry" % option
              for option in sorted(set(reasons) - set(found))]
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate %s" % os.path.relpath(RECORDED, ROOT))
    args = parser.parse_args(argv)
    found = census(ROOT)
    reasons = load(RECORDED) if os.path.exists(RECORDED) else {}
    for option, callers in sorted(found.items()):
        print("%-64s %s" % (option, _where(callers) if callers
                            else "unset: " + reasons.get(option, "?")))
    unset = sorted(option for option, callers in found.items()
                   if not callers)
    n_flags = sum(option.startswith("cli") for option in found)
    print("options: %d defaulted parameters, %d CLI flags; %d set by "
          "nothing" % (len(found) - n_flags, n_flags, len(unset)))
    if args.write:
        os.makedirs(os.path.dirname(RECORDED), exist_ok=True)
        with open(RECORDED, "w") as handle:
            handle.write(render({option: reasons.get(option, "")
                                 for option in unset}))
        return 0
    lines = ["STALE " + line for line in problems(found, reasons)]
    lines += ["TEST-ONLY %s: only tests name it; move it to tests/" % name
              for name in reached_only_by_tests(ROOT)]
    lines += ["ENVIRON %s: reads the environment" % where
              for where in environment_reads(ROOT)]
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
