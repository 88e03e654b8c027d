"""The library holds only what the engine, the CLI or the benchmark uses.

Each top-level function, class, module constant and method of
`src/shadowseg` must be referenced somewhere in the library outside its
own definition, or in `bench/`, and each optional parameter must be
passed by some call there. Code that only the tests call belongs in the
tests (`tests/oracles.py` holds the scalar references). A re-export from
the package's `__init__.py` is not a use: it would keep alive a name
that nothing calls.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "shadowseg"
BENCH = ROOT / "bench"


def _parse(directory: Path) -> dict:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))}


def _references(tree, imports=True) -> Counter:
    """Identifiers a tree reads: names, attributes and, when `imports`,
    imported names."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom) and imports:
            refs.update(alias.name for alias in node.names)
    return refs


def _definitions(module: Path, tree):
    """(qualified name, name, node) of each top-level function, class,
    module constant and non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module.stem}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module.stem}.{node.name}.{item.name}", item.name, item
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield f"{module.stem}.{target.id}", target.id, node


def _bench_names() -> set:
    """Identifiers of `bench/`, plus the names `bench/spans.py` wraps, which
    its module-level tables hold as strings."""
    names = set()
    for path, tree in _parse(BENCH).items():
        names.update(_references(tree))
        if path.name == "spans.py":
            for node in tree.body:
                if isinstance(node, ast.Assign):
                    names.update(n.value for n in ast.walk(node.value)
                                 if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return names


def unused_library_names(trees=None) -> list:
    """Qualified names of the definitions in `trees` (by default the
    library's modules by path) that nothing outside them references."""
    trees = _parse(LIBRARY) if trees is None else trees
    library_refs = sum((_references(tree, imports=path.name != "__init__.py")
                        for path, tree in trees.items()), Counter())
    bench = _bench_names()
    unused = []
    for path, tree in trees.items():
        for qualified, name, node in _definitions(path, tree):
            outside = library_refs[name] - _references(node)[name]
            if outside <= 0 and name not in bench:
                unused.append(qualified)
    return unused


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether `call` passes the parameter `name`, at positional `index`
    (None for keyword-only) counted after any `self` or `cls`."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and len(call.args) > index


def unpassed_options() -> set:
    """The optional parameters of library functions and methods that no
    call in the library or in `bench/` passes."""
    library = _parse(LIBRARY)
    calls = {}
    for tree in [*library.values(), *_parse(BENCH).values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    unpassed = set()
    for path, tree in library.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first_default = len(positional) - len(args.defaults)
            options = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first_default]
            options += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None]
            for index, name in options:
                if not any(_passes(call, index, name) for call in calls.get(node.name, [])):
                    unpassed.add(f"{path.stem}.{node.name}({name}=)")
    return unpassed


def test_every_library_name_is_used_outside_the_tests():
    assert unused_library_names() == []


def test_a_name_only_the_package_re_exports_is_unused():
    trees = {LIBRARY / name: ast.parse(source) for name, source in (
        ("pipeline.py", "def process_frame(): pass\ndef detection_potentials(): pass\n"),
        ("__init__.py", "from shadowseg.pipeline import detection_potentials, process_frame\n"),
        ("cli.py", "from shadowseg.pipeline import process_frame\nprocess_frame()\n"),
    )}
    assert unused_library_names(trees) == ["pipeline.detection_potentials"]


def test_every_optional_parameter_is_passed_outside_the_tests():
    assert unpassed_options() == set()


def test_the_scan_sees_definitions_of_every_kind():
    # the gate is only as good as its list of definitions
    found = {qualified for path in LIBRARY.glob("*.py")
             for qualified, _, _ in _definitions(path, ast.parse(path.read_text()))}
    assert {"energy.energy_of_terms", "background.MixtureGrid", "background.K",
            "background.MixtureGrid.select_background", "shadow.Y_MAX"} <= found
