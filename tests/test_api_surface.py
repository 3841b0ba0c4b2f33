"""The package ships no public function or class that only tests reach."""

import ast
import pathlib
from collections import defaultdict

import ap3

SRC = pathlib.Path(ap3.__file__).parent

# Public names that nothing in src/ uses, each with the reason it stays.
ALLOWED = {
    "print_help": "cli's parser overrides argparse's method, which the --help action calls",
}


def test_every_public_definition_is_used_in_src():
    # A use is a name or an attribute in code (imports and __all__ strings do
    # not count), matched by name alone: methods that share a name are not
    # told apart, so a use of one keeps them all.
    defined = defaultdict(list)
    used = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name].append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = {name: where for name, where in defined.items() if name not in used}
    assert set(unused) - set(ALLOWED) == set(), unused
    assert set(ALLOWED) <= set(unused), "an allowed name is now used or gone: drop it from ALLOWED"
