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
parameter as passed."""

import ast
import gc
import pathlib

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


def never_passed():
    """``file::owner(param)`` of every option no call site passes."""
    # the ~30k-line parse allocates millions of acyclic nodes: cyclic
    # GC passes over them would add ~40 % to the run time
    gc.disable()
    try:
        trees = {p: ast.parse(p.read_text(), str(p))
                 for p in {*DEFINING, *CALLING}}
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
    finally:
        gc.enable()


def test_every_defaulted_parameter_has_a_caller():
    unused = never_passed()
    assert not unused, (
        f"{len(unused)} defaulted parameter(s) that no call site passes; "
        "write each as a constant:\n" + "\n".join(unused))
