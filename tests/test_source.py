"""Checks on the library source itself."""
import ast
import pathlib

import pgrouplab


def test_no_assert_statements_in_library():
    # verification must survive `python -O`, which strips assert statements
    root = pathlib.Path(pgrouplab.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.relative_to(root)}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert offenders == []


# Each oracle module under tests/ against the names it must not import: the
# pgrouplab modules it checks and the fast-path helpers those modules use.
ORACLE_BANNED = {
    "autcount.py": ("pgrouplab.groups",),
    "charpolyoracle.py": ("pgrouplab",),
    "exactoracle.py": ("pgrouplab.bounds", "pgrouplab.walk", "matrix_index_perm", "state_table"),
    "familyoracle.py": ("pgrouplab.groups",),
}


def _imported_names(tree):
    """Every dotted name an import binds, and each `module.name` it reads from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def _is_banned(name, banned):
    parts = name.split(".")
    return any(name == b or name.startswith(b + ".") or b in parts for b in banned)


def test_oracles_share_no_code_with_what_they_check():
    tests = pathlib.Path(__file__).parent
    for module, banned in ORACLE_BANNED.items():
        tree = ast.parse((tests / module).read_text(), filename=module)
        offenders = [name for name in _imported_names(tree) if _is_banned(name, banned)]
        assert offenders == [], module


def test_oracle_import_check_can_fail():
    tree = ast.parse("from pgrouplab import groups\nfrom pgrouplab.fplin import matrix_index_perm\n")
    names = list(_imported_names(tree))
    assert [n for n in names if _is_banned(n, ORACLE_BANNED["autcount.py"])] == ["pgrouplab.groups"]
    assert [n for n in names if _is_banned(n, ORACLE_BANNED["exactoracle.py"])] == [
        "pgrouplab.fplin.matrix_index_perm"]
