"""Source checks over every module of the package, made on its syntax tree:
the package reads no environment variable (its settings are arguments and
module constants) and writes nothing to stderr (it reports through
``logging``)."""

import ast
import pathlib

import wrangler_ray

BANNED = {("os", "environ"), ("os", "getenv"), ("sys", "stderr")}


def _banned_uses(tree: ast.AST) -> list[tuple[int, str]]:
    aliases = {
        a.asname or a.name: a.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for a in node.names
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (aliases.get(node.value.id), node.attr) in BANNED
        ):
            found.append((node.lineno, f"{aliases[node.value.id]}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found += [
                (node.lineno, f"from {node.module} import {a.name}")
                for a in node.names if (node.module, a.name) in BANNED
            ]
    return found


def test_banned_uses_are_found():
    src = (
        "import os\nimport sys as s\nfrom os import getenv\n"
        "x = os.environ.get('A')\nprint(1, file=s.stderr)\nos.path.join('a')\n"
    )
    assert sorted(_banned_uses(ast.parse(src))) == [
        (3, "from os import getenv"), (4, "os.environ"), (5, "sys.stderr"),
    ]


def test_package_reads_no_env_and_writes_no_stderr():
    root = pathlib.Path(wrangler_ray.__file__).parent
    found = [
        f"{path.relative_to(root)}:{line}: {what}"
        for path in sorted(root.rglob("*.py"))
        for line, what in _banned_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found
