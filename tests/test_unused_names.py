"""Every import and every private top-level name of a package module is read
in that module, so a deletion leaves nothing unused behind."""

import ast
from pathlib import Path

import pytest

import b3image

MODULES = sorted(Path(b3image.__file__).parent.glob("*.py"))


def _bound_names(tree: ast.Module) -> list[str]:
    """The module's imported names, then its private top-level names."""
    imported, defined = [], []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return imported + [n for n in defined if n.startswith("_") and not n.startswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere in the module, plus the strings of __all__."""
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return read


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_and_private_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [n for n in _bound_names(tree) if n not in _read_names(tree)]
    assert unused == [], f"{path.name}: unused {unused}"
