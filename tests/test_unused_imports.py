"""No module of the library or the tests imports a name it never reads.

An unused import blurs which module exercises what: a test module that
imports the PGM writer and never calls it reads as a test of the writer.
`__init__.py` is exempt, since its imports are the package's API, and so
is a line marked `# noqa: F401`: the three in `cli.py` bind names that
`bench/spans.py` traces there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "shadowseg").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of each name `source` imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in MODULES if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert found == []


def test_the_scan_sees_each_kind_of_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads\n"
              "from shadowseg.edge import frame_edges  # noqa: F401\n"
              "print(np.pi, loads)\n")
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]
