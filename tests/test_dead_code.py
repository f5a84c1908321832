"""Dead-code guard: every function, class and method that `src/cartier`
defines must be named somewhere in `src/` or `tests/` outside its own
definition, and every one that a `tests/*_oracle.py` module defines must
be named in an oracle or a test file; a method counts as named only as an
attribute, `.name`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unreferenced(modules, others=()):
    """Names defined in `modules` (path -> source) that occur in no module
    and no text of `others` outside the definitions of that name.  A name
    defined only as a method occurs only as `.name`.  Dunder names are
    exempt."""
    spans = {}  # name -> [(path, first line, last line)] of its definitions
    free = set()  # names with a definition outside a class body
    for path, src in modules.items():
        tree = ast.parse(src)
        in_class = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                spans.setdefault(node.name, []).append(
                    (path, node.lineno, node.end_lineno)
                )
                if id(node) not in in_class:
                    free.add(node.name)
    texts = list(modules.items()) + list(others)
    dead = []
    for name, defs in sorted(spans.items()):
        prefix = r"\b" if name in free else r"\."
        word = re.compile(prefix + re.escape(name) + r"\b")
        used = False
        for path, src in texts:
            own = [(a, b) for q, a, b in defs if q == path]
            for i, line in enumerate(src.splitlines(), 1):
                if word.search(line) and not any(a <= i <= b for a, b in own):
                    used = True
                    break
            if used:
                break
        if not used:
            dead.append(name)
    return dead


def test_every_definition_in_src_is_referenced():
    modules = {str(p): p.read_text() for p in sorted((ROOT / "src" / "cartier").glob("*.py"))}
    tests = [
        (str(p), p.read_text())
        for p in sorted((ROOT / "tests").glob("*.py"))
        if p.name != Path(__file__).name  # its synthetic module names nothing real
    ]
    assert unreferenced(modules, tests) == []


def test_every_oracle_function_is_used_by_a_test():
    oracles = {str(p): p.read_text() for p in sorted((ROOT / "tests").glob("*_oracle.py"))}
    tests = [(str(p), p.read_text()) for p in sorted((ROOT / "tests").glob("test_*.py"))]
    assert unreferenced(oracles, tests) == []


def test_scanner_flags_an_unreferenced_helper():
    module = (
        "def used():\n"
        "    size = 1\n"
        "    return _helper_twice(size)\n"
        "\n"
        "def _helper_twice(x):\n"
        "    return 2 * x\n"
        "\n"
        "def _orphan(x):\n"
        "    return _orphan(x - 1) if x else 0\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.v = used()\n"
        "\n"
        "    def lonely(self):\n"
        "        return self.v\n"
        "\n"
        "    def size(self):\n"
        "        return 1\n"
    )
    caller = ("test_mod.py", "from mod import Box\nBox()\n")
    # _orphan only calls itself, no one calls Box.lonely, and the local
    # variable size in used() is no call of Box.size
    assert unreferenced({"mod.py": module}, [caller]) == ["_orphan", "lonely", "size"]
