"""Every defaulted parameter of the package is set by some call site.

An option that no caller sets doubles the configurations the tests are assumed
to cover without ever being exercised; its default belongs in the body.  The
scan reads every call in ``src``, ``tests``, ``scripts`` and ``bench`` and
marks the parameters it sets, by keyword or by position.  Callees are matched
by name: ``mod.f(...)`` and ``f(...)`` both reach every package function named
``f``, a simple alias (``verify = wsg.verify_certificate``, ``import ... as``)
reaches the function it names, and ``ClassName(...)`` reaches
``ClassName.__init__``.  A ``*args`` or ``**kwargs`` argument sets every
parameter it could fill.
"""

import ast
import pathlib

import treegibbs

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = pathlib.Path(treegibbs.__file__).parent
CALLER_DIRS = ("src", "tests", "scripts", "bench")


def _definitions(module, tree):
    """(module, qualname, positional params, defaulted params) per function."""
    out = []

    def visit(node, scope, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if in_class and not static:
                    positional = positional[1:]  # self or cls
                defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                out.append((module, scope + child.name, positional, defaulted))
                visit(child, f"{scope}{child.name}.", False)

    visit(tree, "", False)
    return out


def _aliases(tree):
    """name -> the name it stands for, from ``x = a.b.f`` and ``import f as x``."""
    alias = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name) and isinstance(value, (ast.Name, ast.Attribute)):
                alias[target.id] = value.attr if isinstance(value, ast.Attribute) else value.id
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                if a.asname:
                    alias[a.asname] = a.name
    return alias


def _set_parameters(defs, trees):
    """{(module, qualname): parameters some call in ``trees`` sets}."""
    by_name = {}
    for d in defs:
        module, qualname, positional, _ = d
        parts = qualname.split(".")
        # ClassName(...) runs ClassName.__init__
        name = parts[-2] if parts[-1] == "__init__" and len(parts) > 1 else parts[-1]
        by_name.setdefault(name, []).append(d)
    used = {}
    for tree in trees:
        alias = _aliases(tree)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            for module, qualname, positional, _ in by_name.get(alias.get(name, name), []):
                got = used.setdefault((module, qualname), set())
                for k, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        got.update(positional[k:])
                        break
                    if k < len(positional):
                        got.add(positional[k])
                for kw in call.keywords:
                    if kw.arg is None:
                        got.update(positional)
                    else:
                        got.add(kw.arg)
    return used


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unset_options():
    """Sorted (module, qualname, parameter) of defaulted parameters no call sets."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        defs += _definitions(path.stem, _parse(path))
    paths = sorted(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py"))
    used = _set_parameters(defs, [_parse(p) for p in paths])
    return sorted(
        (module, qualname, p)
        for module, qualname, _, defaulted in defs
        for p in defaulted
        if p not in used.get((module, qualname), set())
    )


def test_scan_sees_keyword_positional_alias_and_constructor_calls():
    src = (
        "class E:\n"
        "    def __init__(self, m, crit=None):\n"
        "        pass\n"
        "def f(a, b=1, c=2, *, d=3):\n"
        "    pass\n"
        "def h(x=0):\n"
        "    pass\n"
    )
    caller = "alias = mod.f\nalias(0, 1)\nf(0, d=4)\nE('m', crit=1)\n"
    used = _set_parameters(_definitions("m", ast.parse(src)), [ast.parse(caller)])
    assert used[("m", "f")] == {"a", "b", "d"}
    assert used[("m", "E.__init__")] == {"m", "crit"}
    assert ("m", "h") not in used


def test_every_defaulted_parameter_is_set_by_some_caller():
    unset = unset_options()
    assert not unset, unset
