"""Every option has a caller: a defaulted parameter of a public function
or class in the stage, pipeline and function layers (and ``synth``)
that no call site in the repository sets to another value than its
default is a constant dressed up as an option, and should be written
as one.

A parameter counts as passed when some call names the function (or
class) and passes it by keyword, by position, as a ``fn_kwargs`` key
of a ``map_batches``-style call whose first argument is the function,
as a ``**`` dict whose keys are visible (a dict literal, ``dict(...)``
or a name assigned one in the same module), as a ``cached(cls, ...)``
argument, or through a ``**kw`` that a caller forwards to it. A pass
of the default itself does not count: a literal equal to it
(``key="user_id"`` where the default is ``"user_id"``), or a module
constant bound to it (``k=T.MINHASH_K`` where the default is 128 and
``MINHASH_K = 128``). Calls are matched by name, so two functions of
the same name share their callers; that errs toward counting a
parameter as passed.

Every library def has a production caller: each top-level function or
class of the stage, state, function and pipeline layers (and
``synth``), public or private, must be reached from a production root
— a registered ``q_*`` query (its ``@query(oracle=...)`` decorator
included), any name in ``bench.py``, ``__ray_entry__.py``,
``perfbench/`` or ``scripts/``, or a module-level statement of
``karta_ray`` other than an import. A def reaches the ``ast.Name`` and
``ast.Attribute`` names inside it (decorators included), matched by
name to the top-level defs of ``karta_ray``; a string, a comment or an
import statement reaches nothing. The only unreached defs allowed are
``TEST_ORACLES``: references that a named test compares a production
output against. ``kernels/``, ``sources/`` and ``crs.py`` mirror the
reference library's surface and are not checked."""

import ast
import gc
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
LIB = ROOT / "karta_ray"
DEFINING = [*sorted((LIB / "stages").glob("*.py")),
            *sorted((LIB / "pipelines").glob("*.py")),
            *sorted((LIB / "functions").glob("*.py")),
            LIB / "synth.py"]
CALLING = [*sorted(LIB.rglob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py")),
           *sorted((ROOT / "scripts").glob("*.py")),
           ROOT / "bench.py", ROOT / "__ray_entry__.py"]
# the production entry points, and the layers held to a production caller
ENTRY = [ROOT / "bench.py", ROOT / "__ray_entry__.py",
         *sorted((ROOT / "perfbench").glob("*.py")),
         *sorted((ROOT / "scripts").glob("*.py"))]
CHECKED = [*DEFINING, *sorted((LIB / "state").glob("*.py"))]
# unreached defs kept as test references: {def: the test file that
# compares a production output against it}
TEST_ORACLES = {
    "karta_ray/functions/text.py::char_shingles": "tests/test_dedup_ann.py",
    "karta_ray/functions/text.py::minhash_signature":
        "tests/test_dedup_ann.py",
    "karta_ray/functions/text.py::lang_id": "tests/test_dedup_ann.py",
    "karta_ray/functions/text.py::quality_counts": "tests/test_dedup_ann.py",
    "karta_ray/functions/sketch.py::hll_count": "tests/test_dedup_ann.py",
    "karta_ray/functions/sketch.py::hll_count_from_rows":
        "tests/test_heavy.py",
    "karta_ray/stages/raster.py::grid_from_tiles": "tests/test_raster.py",
    "karta_ray/stages/sink.py::read_sink": "tests/test_sink.py",
}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@pytest.fixture(scope="module")
def trees():
    """{path: module AST} of every file either scan reads, parsed once."""
    # the ~30k-line parse allocates millions of acyclic nodes: cyclic
    # GC passes over them would add ~40 % to the run time
    gc.disable()
    try:
        return {p: ast.parse(p.read_text(), str(p))
                for p in {*DEFINING, *CALLING}}
    finally:
        gc.enable()


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _defaulted(fn, is_method, consts):
    """(param, position or None, default as :func:`_value` gives it) of
    each parameter with a default."""
    a = fn.args
    pos = a.posonlyargs + a.args
    static = any(_name(d) == "staticmethod" for d in fn.decorator_list)
    if is_method and not static:
        pos = pos[1:]  # self / cls
    first = len(pos) - len(a.defaults)
    out = [(p.arg, i, _value(d, consts))
           for i, (p, d) in enumerate(zip(pos[first:], a.defaults), first)]
    out += [(p.arg, None, _value(d, consts))
            for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _options(trees, consts):
    """(file, owner, param, position, default) for every defaulted
    parameter of a public top-level function, public class constructor
    or public method of a public class."""
    out = []
    for path in DEFINING:
        rel = path.relative_to(ROOT)
        for node in trees[path].body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out += [(rel, node.name, *d) for d in _defaulted(node, False, consts)]
            elif isinstance(node, ast.ClassDef):
                for m in node.body:
                    if not isinstance(m, ast.FunctionDef):
                        continue
                    if m.name == "__init__":
                        owner = node.name
                    elif m.name.startswith("_"):
                        continue
                    else:
                        owner = m.name
                    out += [(rel, owner, *d) for d in _defaulted(m, True, consts)]
    return out


def _constants(trees):
    """{name: (type, value)} of the module-level ``NAME = <literal>``
    assignments, over names that every module binds to one value."""
    seen = {}
    for tree in trees.values():
        for node in tree.body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Constant)):
                v = node.value.value
                seen.setdefault(node.targets[0].id, set()).add((type(v), v))
    return {k: next(iter(v)) for k, v in seen.items() if len(v) == 1}


def _value(node, consts):
    """What a call passes: ``(type, value)`` of a literal or of a module
    constant (``MINHASH_K``, ``T.MINHASH_K``), else ``None`` (a value
    not known before the call runs)."""
    if isinstance(node, ast.Constant):
        return type(node.value), node.value
    return consts.get(_name(node))


def _passed(trees, consts):
    """{(callee name, param name or position): {values passed}} over
    every call site, plus "*" for a call that splats positional
    arguments; each value as :func:`_value` gives it."""
    passed = {}

    def add(name, key, value):
        passed.setdefault((name, key), set()).add(value)

    def record(name, args, keywords, assigns):
        if name is None:
            return
        for i, a in enumerate(args):
            add(name, i, _value(a, consts))
            if isinstance(a, ast.Starred):
                add(name, "*", None)
        for k in keywords:
            pairs = ([(k.arg, k.value)] if k.arg
                     else _splat_items(k.value, assigns))
            for key, value in pairs:
                add(name, key, _value(value, consts))

    forwards = []  # (f, g): f(**kw) calls g(..., **kw)
    for path in CALLING:
        calls, assigns = [], {}
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.Call):
                calls.append(node)
            elif isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        assigns.setdefault(t.id, []).append(node.value)
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.args.kwarg is not None):
                kw = node.args.kwarg.arg
                forwards += [
                    (node.name, _name(c.func)) for c in ast.walk(node)
                    if isinstance(c, ast.Call) and any(
                        k.arg is None and _name(k.value) == kw
                        for k in c.keywords)]
        for call in calls:
            name = _name(call.func)
            record(name, call.args, call.keywords, assigns)
            if name == "cached" and call.args:
                record(_name(call.args[0]), call.args[1:], [], assigns)
            for k in call.keywords:
                if k.arg == "fn_kwargs" and call.args:
                    record(_name(call.args[0]), [],
                           [ast.keyword(arg=key, value=value) for key, value
                            in _splat_items(k.value, assigns)], assigns)
    grew = True
    while grew:
        grew = False
        for f, g in forwards:
            for (name, key), values in list(passed.items()):
                if name == f and isinstance(key, str) \
                        and not values <= passed.get((g, key), set()):
                    passed.setdefault((g, key), set()).update(values)
                    grew = True
    return passed


def _splat_items(node, assigns, depth=0):
    """(key, value node) of a ``**`` dict whose keys are visible."""
    if isinstance(node, ast.Dict):
        return [(k.value, v) for k, v in zip(node.keys, node.values)
                if isinstance(k, ast.Constant)]
    if isinstance(node, ast.Call) and _name(node.func) == "dict":
        return [(k.arg, k.value) for k in node.keywords if k.arg]
    if isinstance(node, ast.Name) and depth == 0:
        return [item for v in assigns.get(node.id, [])
                for item in _splat_items(v, assigns, 1)]
    return []


def never_passed(trees):
    """``file::owner(param)`` of every option no call site passes."""
    consts = _constants(trees)
    passed = _passed(trees, consts)
    out = []
    for rel, owner, param, pos, default in _options(trees, consts):
        values = {*passed.get((owner, param), ()),
                  *passed.get((owner, pos), ()),
                  *passed.get((owner, "*"), ())}
        # passing the literal default is not setting the option
        if not (values - {default} if default else values):
            out.append(f"{rel}::{owner}({param})")
    return out


def test_every_defaulted_parameter_has_a_caller(trees):
    unused = never_passed(trees)
    assert not unused, (
        f"{len(unused)} defaulted parameter(s) that no call site passes; "
        "write each as a constant:\n" + "\n".join(unused))


def _names(node):
    """The ``ast.Name`` ids and ``ast.Attribute`` attrs under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def unreached(trees):
    """``file::name`` of every top-level def in ``CHECKED`` that no
    production root reaches."""
    roots, edges = set(), {}
    for path in ENTRY:
        roots |= _names(trees[path])
    for path in sorted(LIB.rglob("*.py")):
        for node in trees[path].body:
            if isinstance(node, _DEFS):
                edges.setdefault(node.name, set()).update(_names(node))
                if node.name.startswith("q_"):
                    roots.add(node.name)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += edges.get(name, ())
    return [f"{path.relative_to(ROOT)}::{node.name}" for path in CHECKED
            for node in trees[path].body
            if isinstance(node, _DEFS) and node.name not in reached]


def test_every_library_def_has_a_production_caller(trees):
    dead = unreached(trees)
    problems = [f"{d}: no production caller; delete it, or list it in "
                "TEST_ORACLES with the test that compares against it"
                for d in dead if d not in TEST_ORACLES]
    for d, test in TEST_ORACLES.items():
        if d not in dead:
            problems.append(f"{d}: listed in TEST_ORACLES but reached from "
                            "a production root (or gone); drop the entry")
        elif d.rsplit("::", 1)[1] not in _names(trees[ROOT / test]):
            problems.append(f"{d}: listed in TEST_ORACLES, but {test} "
                            "does not name it")
    assert not problems, "\n".join(problems)
