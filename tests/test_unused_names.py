"""Every import and every private top-level name of a package module is read
in that module, and so is every private method of its classes (as an
attribute), so a deletion leaves nothing unused behind.  Every record's
`to_json` returns through `exactfield.json_form`.  No `.name` attribute is
compared with a string literal, so what differs between families (or any
other named records) lives in their data, not in checks keyed on a name.
`exactfield._convolve` and `exactfield._reduce` are read only inside
`exactfield.dot`, so every cyclotomic product goes through that one kernel.
No module but `_fastclosure`, whose float64 arrays are guarded below 2^53,
holds a float constant or calls `float(...)`, so the exact layers stay exact;
`isinstance(x, float)`, which refuses a float, is allowed."""

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


def _private_methods(tree: ast.Module) -> list[str]:
    """Class.name for every private method of a top-level class."""
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_private_method_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        n.attr
        for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unused = [m for m in _private_methods(tree) if m.split(".")[1] not in read]
    assert unused == [], f"{path.name}: unread {unused}"


def _scopes(tree: ast.Module):
    """(scope, node) for each top-level function, each method as
    Class.method, and any other top-level statement as <module>."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                yield (f"{node.name}.{item.name}" if method else node.name), item
        else:
            yield "<module>", node


def _readers(tree: ast.Module, names: set[str]) -> set[str]:
    """The scopes that load any of the names."""
    return {
        scope
        for scope, node in _scopes(tree)
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names
    }


def test_convolve_and_reduce_are_read_only_by_dot():
    kernel = {"_convolve", "_reduce"}
    readers = {
        f"{path.stem}.{scope}"
        for path in MODULES
        for scope in _readers(ast.parse(path.read_text(encoding="utf-8")), kernel)
    }
    assert readers == {"exactfield.dot"}


def _to_json_methods(tree: ast.Module) -> list[ast.FunctionDef]:
    return [
        node
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "to_json"
    ]


def _calls_json_form_on_self(expr: ast.expr) -> bool:
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "json_form"
        and [a.id for a in n.args if isinstance(a, ast.Name)] == ["self"]
        for n in ast.walk(expr)
    )


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_to_json_returns_through_json_form(path):
    """Each record's JSON is `exactfield.json_form(self)`, so no writer lists
    a record's fields a second time."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for method in _to_json_methods(tree):
        returns = [n for n in ast.walk(method) if isinstance(n, ast.Return)]
        assert returns, f"{path.name}:{method.lineno}: to_json returns nothing"
        for ret in returns:
            assert ret.value is not None and _calls_json_form_on_self(ret.value), (
                f"{path.name}:{ret.lineno}: to_json returns without json_form(self)"
            )


def _is_string_literal(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        return bool(expr.elts) and all(map(_is_string_literal, expr.elts))
    return isinstance(expr, ast.Constant) and isinstance(expr.value, str)


def _is_name_attribute(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Attribute) and expr.attr == "name"


def _name_checks(tree: ast.Module) -> list[int]:
    """Lines that compare a `.name` with a string literal, or match one
    against string patterns."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_name_attribute, operands)) and any(
                map(_is_string_literal, operands)
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Match) and _is_name_attribute(node.subject):
            if any(
                isinstance(p, ast.MatchValue) and _is_string_literal(p.value)
                for case in node.cases
                for p in ast.walk(case.pattern)
            ):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_name_is_compared_with_a_string(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _name_checks(tree) == [], f"{path.name}: name checks at lines {_name_checks(tree)}"


def test_name_check_finds_each_form():
    source = (
        'fam.name == "G2"\n'
        '"F4" != fam.name\n'
        'fam.name in ("SO7spin", "SO9spin")\n'
        'match fam.name:\n    case "G2":\n        pass\n'
        "fam.name == other.name\n"
        'fam.label == "G2"\n'
    )
    assert _name_checks(ast.parse(source)) == [1, 2, 3, 4]


def _float_uses(tree: ast.Module) -> list[int]:
    """Lines that hold a float constant or call float(...)."""
    return sorted(
        n.lineno
        for n in ast.walk(tree)
        if (isinstance(n, ast.Constant) and isinstance(n.value, float))
        or (isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "float")
    )


EXACT_MODULES = [p for p in MODULES if p.stem != "_fastclosure"]


@pytest.mark.parametrize("path", EXACT_MODULES, ids=[p.stem for p in EXACT_MODULES])
def test_no_float_outside_the_fast_closure(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert _float_uses(tree) == [], f"{path.name}: floats at lines {_float_uses(tree)}"


def test_float_check_finds_each_form():
    source = "x = 0.5\ny = float(x)\nz = 1e3\nisinstance(x, float)\nw = 2\n"
    assert _float_uses(ast.parse(source)) == [1, 2, 3]
