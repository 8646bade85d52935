"""The option census: every option the code offers, and who sets it.

An *option* is a defaulted parameter of a public ``def`` in
``src/repro`` — a function or method, ``__init__`` included, whose
module, class and own name have no leading underscore — a defaulted
``__init__`` field of a public ``@dataclass`` that writes no
``__init__`` (a field whose name has a leading underscore is state, not
an option), or an ``add_argument`` flag of ``designer/cli.py``.  A
caller *sets* one when a call in ``src/``, ``benchmarks/`` or
``examples/`` passes it, by keyword or by position, or, for a flag,
when a string there (not a docstring) names it.
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
``obj.f(...)``; ``Class(...)``, ``cls(...)`` inside the class and
``super().__init__(...)`` for an ``__init__`` or a field, also of a
subclass inheriting it), and ``*args`` / ``**kwargs`` at a call count
as setting everything they could reach, so the census errs towards
"set" — except a ``**`` splat rebuilt from ``fields(Cls)``, which only
decodes what an earlier build encoded.

Three more rules keep ``src/`` the shipped designer and nothing else,
with no exemptions:

* every public module-level ``def`` or ``class`` of ``src/repro``, and
  every public method of such a class, is named — as a name, an
  attribute or an import, and a method also by a ledger boundary string
  ``module:Class.method`` — somewhere in ``src/``, ``benchmarks/`` or
  ``examples/`` outside its own definition and a package
  ``__init__``'s re-export of it (:func:`reached_only_by_tests`); a
  docstring or other prose names nothing.  Code only tests reach
  belongs in ``tests/``.  The methods of a class
  extending a base class from outside ``src/repro`` (an HTTP handler's
  ``do_GET``) are that library's to call;
* no ``src/repro`` module reads ``os.environ`` or ``os.getenv``
  (:func:`environment_reads`): a setting is a parameter, a field or a
  flag, which the census above counts;
* every metric family or span name literal in ``src/repro`` is one
  :mod:`repro.obs.catalogue` declares (:func:`undeclared_names`).
"""

import argparse
import ast
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "repro")
CLI = os.path.join(PACKAGE, "designer", "cli.py")
CALLER_DIRS = ("src", "benchmarks", "examples")
RECORDED = os.path.join(ROOT, "tests", "data", "options.json")
BOUNDARY = re.compile(r"(?:[\w.]+:)?[A-Z]\w*\.([A-Za-z_]\w*)")


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


def _is_dataclass(node):
    targets = (decorator.func if isinstance(decorator, ast.Call)
               else decorator for decorator in node.decorator_list)
    return any(isinstance(target, ast.Name) and target.id == "dataclass"
               for target in targets)


def _init_fields(node):
    """``(name, defaulted)`` per ``__init__`` field a dataclass body
    declares, in order (``ClassVar`` and ``init=False`` are not)."""
    out = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)) \
                or "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        else:
            defaulted = value is not None
        out.append((item.target.id, defaulted))
    return out


def dataclass_fields(root):
    """Every defaulted ``__init__`` field of a public ``@dataclass`` in
    ``src/repro`` that writes no ``__init__`` of its own, under its
    declaring class; a field whose name is private is state, not an
    option.  A call to the class, or to a dataclass inheriting the
    field, sets it."""
    modules = [(path, _parse(path)) for path in _python_files(root, PACKAGE)]
    dataclasses = {
        node.name: (node, path) for path, tree in modules
        for node in tree.body
        if isinstance(node, ast.ClassDef) and _is_dataclass(node)
        and not any(isinstance(item, ast.FunctionDef)
                    and item.name == "__init__" for item in node.body)
    }

    def inherited(node):
        bases = [dataclasses[base][0] for base in _bases(node)
                 if base in dataclasses]
        return [entry for base in bases for entry in
                inherited(base) + _init_fields(base)]

    heirs = {name: {name} for name in dataclasses}
    for name, (node, __) in dataclasses.items():
        stack = list(_bases(node))
        while stack:
            base = stack.pop()
            if base in dataclasses:
                heirs[base].add(name)
                stack += _bases(dataclasses[base][0])
    out = []
    for name, (node, path) in dataclasses.items():
        module = _module_name(root, path)
        if not (_public(name) and all(map(_public, module.split(".")))):
            continue
        first = len(inherited(node))
        out += [_Parameter("%s:%s.%s" % (module, name, field), heirs[name],
                           first + pos, 0)
                for pos, (field, defaulted) in enumerate(_init_fields(node))
                if defaulted and _public(field)]
    return out


def _calls(tree):
    """``(call, enclosing class or None)`` for every call."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, owner
            yield from walk(child, child if isinstance(child, ast.ClassDef)
                            else owner)
    return walk(tree, None)


def _callees(call, owner):
    """``(name, leading positionals that are not the callee's)`` per
    name the call goes by; ``cls(...)`` goes by the enclosing class,
    ``super().__init__(...)`` and ``Base.__init__(self, ...)`` by its
    bases."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls" and owner is not None:
            return [(owner.name, 0)]
        return [(func.id, 0)]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "__init__" and owner is not None:
        bases = _bases(owner)
        target = func.value
        if isinstance(target, ast.Call) and isinstance(target.func, ast.Name) \
                and target.func.id == "super":
            return [(base, 0) for base in bases]
        if isinstance(target, ast.Name) and target.id in bases:
            return [(target.id, 1)]
    return [(func.attr, 0)]


def _decodes(value):
    """Whether a ``**`` splat is rebuilt from ``fields(Cls)``: it only
    decodes values an earlier build encoded, and sets nothing."""
    return any(isinstance(node, ast.comprehension)
               and isinstance(node.iter, ast.Call)
               and isinstance(node.iter.func, ast.Name)
               and node.iter.func.id == "fields"
               for node in ast.walk(value))


def _sets(call, extra, parameter):
    """Whether *call*, whose first *extra* positionals are not the
    callee's, passes *parameter*."""
    positional = call.args[extra:]
    if parameter.position is not None and (
            parameter.position - parameter.skip < len(positional)
            or any(isinstance(arg, ast.Starred) for arg in positional)):
        return True
    return any(keyword.arg == parameter.name or keyword.arg is None
               and not _decodes(keyword.value)
               for keyword in call.keywords)


def _strings(tree):
    """``(node, text)`` per string constant of *tree* that is no
    docstring."""
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)}
    return [(node, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in docstrings]


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
    parameters = declared(root) + dataclass_fields(root)
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
            for call, owner in _calls(tree):
                for name, extra in _callees(call, owner):
                    for parameter in by_callee.get(name, ()):
                        if _sets(call, extra, parameter):
                            count(parameter.option, top)
            if path == os.path.join(root, CLI):
                continue
            words = {word.split("=", 1)[0] for __, text in _strings(tree)
                     for word in text.split()}
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


def _boundaries(tree):
    """``(method, line)`` per string of *tree* shaped like a ledger
    boundary, ``[module:]Class.method``: the ledger wraps that method by
    name.  Docstrings and other prose name nothing."""
    for node, text in _strings(tree):
        match = BOUNDARY.fullmatch(text)
        if match:
            yield match.group(1), node.lineno


def _extends_a_library(node, classes):
    """Whether class *node* has a base class defined outside
    ``src/repro`` (an HTTP handler, a thread): that library calls its
    methods (``do_GET``, ``log_message``), where the census cannot see."""
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id in classes:
            if _extends_a_library(classes[base.id], classes):
                return True
        elif not (isinstance(base, ast.Name) and base.id == "object"):
            return True
    return False


def reached_only_by_tests(root=ROOT):
    """``module:name`` per public module-level ``def`` or ``class`` in
    ``src/repro``, and ``module:Class.name`` per public method of such a
    class, that nothing in ``src/``, ``benchmarks/`` or ``examples/``
    names in code outside its own definition (a method also counts as
    named by a ledger boundary string, :func:`_boundaries`); the methods
    of a class extending a library's class are that library's to call."""
    named, wrapped = {}, {}
    for top in CALLER_DIRS:
        for path in _python_files(root, top):
            tree = _parse(path)
            reexports = os.path.basename(path) == "__init__.py"
            for name, line in _names(tree, reexports):
                named.setdefault(name, []).append((path, line))
            for name, line in _boundaries(tree):
                wrapped.setdefault(name, []).append((path, line))

    def named_elsewhere(node, path, names=named):
        return any(where != path or not
                   node.lineno <= line <= node.end_lineno
                   for where, line in names.get(node.name, ()))

    modules = [(path, _parse(path)) for path in _python_files(root, PACKAGE)]
    classes = {node.name: node for __, tree in modules
               for node in tree.body if isinstance(node, ast.ClassDef)}
    out = []
    for path, tree in modules:
        module = _module_name(root, path)
        if not all(map(_public, module.split("."))):
            continue
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and _public(node.name)):
                continue
            if not named_elsewhere(node, path):
                out.append("%s:%s" % (module, node.name))
            if isinstance(node, ast.ClassDef) \
                    and not _extends_a_library(node, classes):
                out += ["%s:%s.%s" % (module, node.name, item.name)
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and _public(item.name)
                        and not named_elsewhere(item, path)
                        and not named_elsewhere(item, path, wrapped)]
    return out


CATALOGUE = os.path.join(PACKAGE, "obs", "catalogue.py")
FAMILY_NAME = re.compile(r"repro_[a-z0-9_]+")


def telemetry_names(tree):
    """``(line, name)`` per metric family or span name literal of
    *tree*: a string shaped ``repro_…``, or the first argument of a
    ``.span(...)`` call."""
    spans = {id(node.args[0]) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr == "span" and node.args}
    return [(node.lineno, text) for node, text in _strings(tree)
            if FAMILY_NAME.fullmatch(text) or id(node) in spans]


def undeclared_names(root=ROOT):
    """``path:line name`` per metric or span name literal in
    ``src/repro`` that :mod:`repro.obs.catalogue` does not declare."""
    catalogue = os.path.join(root, CATALOGUE)
    declared = {text for __, text in _strings(_parse(catalogue))} \
        if os.path.exists(catalogue) else set()
    out = []
    for path in _python_files(root, PACKAGE):
        if path == catalogue:
            continue
        out += ["%s:%d %s" % (os.path.relpath(path, root), line, name)
                for line, name in telemetry_names(_parse(path))
                if name not in declared]
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
    n_fields = len(dataclass_fields(ROOT))
    print("options: %d defaulted parameters, %d CLI flags, %d dataclass "
          "fields; %d set by nothing" % (len(found) - n_flags - n_fields,
                                         n_flags, n_fields, len(unset)))
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
    lines += ["UNDECLARED %s: not in the telemetry catalogue" % where
              for where in undeclared_names(ROOT)]
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
