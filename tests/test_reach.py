"""Every public function and class of the package is reached by the program.

A library function that only its own test calls is surface without a user:
it has to be read, kept working and kept in the exports, and nothing in the
pipeline depends on its answer.  The scan lists each module-level public
function and class in ``src/treegibbs`` and looks for its name, as a name or
an attribute (``f(...)``, ``mod.f``, ``tg.f``) or as a string constant (the
bench's tracer names the functions it wraps), in every file under ``src``,
``scripts`` and ``bench``.  A mention inside the definition itself does not
count, and neither does an import: the ``__init__`` re-exports and
``from .x import f`` reach nothing on their own.  ``REFERENCE_ORACLES`` names
the functions kept only as references that tests compare the pipeline
against.
"""

import ast
import pathlib

import treegibbs

ROOT = pathlib.Path(__file__).parents[1]
PACKAGE = pathlib.Path(treegibbs.__file__).parent
CALLER_DIRS = ("src", "scripts", "bench")

# (module, name): kept as a reference the tests check the program against
REFERENCE_ORACLES = (
    ("chain", "convolution_residual"),  # the renewal identity of the acceptance gate
)


def _public_definitions(module, tree):
    """(module, name, node) per module-level public function and class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        (module, node.name, node)
        for node in tree.body
        if isinstance(node, kinds) and not node.name.startswith("_")
    ]


def _mentions(tree, skip=()):
    """Names used in ``tree`` outside the subtrees in ``skip``: loaded or
    stored names, attributes and string constants, but not imports."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node in skip or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def unreached():
    """Sorted (module, name) of public definitions nothing else names."""
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        defs += _public_definitions(path.stem, _parse(path))
    own = {node for _, _, node in defs}
    named = set()
    for path in sorted(p for d in CALLER_DIRS for p in (ROOT / d).rglob("*.py")):
        named |= _mentions(_parse(path), own)
    # a name used inside another definition of the package counts too
    for _, _, node in defs:
        named |= _mentions(ast.Module(body=node.body, type_ignores=[])) - {node.name}
    return sorted((m, n) for m, n, _ in defs if n not in named and (m, n) not in REFERENCE_ORACLES)


def test_scan_skips_the_definition_and_imports():
    src = (
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Named:\n"
        "    pass\n"
        "def _private():\n"
        "    return used() + Named()\n"
    )
    tree = ast.parse(src)
    defs = _public_definitions("m", tree)
    assert [n for _, n, _ in defs] == ["used", "recursive", "Named"]
    caller = ast.parse("from m import recursive\nTRACED = ('x',)\n")
    named = _mentions(tree, {node for _, _, node in defs}) | _mentions(caller)
    assert "used" in named and "Named" in named
    assert "recursive" not in named


def test_every_public_definition_is_reached():
    missing = unreached()
    assert not missing, missing
