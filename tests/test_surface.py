"""Surface guard: every name the traced benchmark and the README reach must resolve,
every README `scan`, `spectrum` and `table1` command must run, every name a
library module imports must be used, every module-level private name must be
read somewhere in the library, and a private name read as `module._name` must
be defined in that module, not imported into it.

The benchmark's span table (``WRAPPED`` in ``benchmark/spans.py``) names the
module attributes it wraps, and the README examples import from the
package; deleting one of those names would break them silently.  The span
table is read as a literal, so the benchmark module is never imported.  The
README's CLI lines run through `cli.main`, with `--out` in a temporary
directory, so a renamed flag or command shows up here too.
"""

import ast
import importlib
import pathlib
import re
import shlex

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _wrapped():
    tree = ast.parse((ROOT / "benchmark" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("benchmark/spans.py has no WRAPPED table")


def _readme_imports():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    names = []
    for block in re.findall(r"```python\n(.*?)```", text, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "greenchain":
                names += [(node.module, alias.name) for alias in node.names]
    return names


@pytest.mark.parametrize("module,attr,span", _wrapped())
def test_benchmark_span_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"greenchain.{module}"), attr, None)), \
        f"{span}: greenchain.{module}.{attr} is gone"


def test_readme_imports_resolve():
    names = _readme_imports()
    assert names, "the README has no greenchain imports to check"
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing


def _readme_cli_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines()
            if re.match(r"greenchain (scan|spectrum|table1)\b", line)]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_runs(line, tmp_path, capsys):
    from greenchain.cli import main

    argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / argv[at])
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_cli_lines_found():
    assert {line.split()[1] for line in _readme_cli_lines()} == {"scan", "spectrum", "table1"}


def _unused_imports(path):
    """Names a module imports and never reads (no linter ships with the test extra)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", [path for path in sorted((ROOT / "src" / "greenchain").glob("*.py"))
                                  if path.name != "__init__.py"],  # imports only to re-export
                         ids=lambda path: path.name)
def test_library_imports_are_used(path):
    assert not _unused_imports(path)


def _library_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((ROOT / "src" / "greenchain").glob("*.py"))}


def _defined(node):
    """The names a module-level statement defines: a def, a class or an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _dead_private_names():
    """Module-level private names defined in `src/greenchain` and read nowhere in it."""
    trees = _library_trees()
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}:{node.lineno} {d}" for name, tree in trees.items() for node in tree.body
            for d in _defined(node) if _is_private(d) and d not in read]


def test_private_names_are_read():
    assert not _dead_private_names()


def _borrowed_private_reads():
    """Reads of `module._name` in `src/greenchain`, `module` bound by `from . import module`,
    where `module` does not define `_name` (it only imports it)."""
    trees = _library_trees()
    defined = {name[:-3]: {d for node in tree.body for d in _defined(node)}
               for name, tree in trees.items()}
    borrowed = []
    for name, tree in trees.items():
        modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   for alias in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in modules
                    and _is_private(node.attr)
                    and node.attr not in defined[modules[node.value.id]]):
                borrowed.append(f"{name}:{node.lineno} {node.value.id}.{node.attr}")
    return borrowed


def test_private_reads_name_the_defining_module():
    assert not _borrowed_private_reads()
