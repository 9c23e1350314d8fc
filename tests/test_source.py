"""Checks on the library source itself."""
import ast
import pathlib

import pgrouplab
from pgrouplab import guards


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
    "assocoracle.py": ("pgrouplab",),
    "autcount.py": ("pgrouplab.groups",),
    "charpolyoracle.py": ("pgrouplab",),
    "exactoracle.py": ("pgrouplab.bounds", "pgrouplab.walk", "matrix_index_perm", "state_table"),
    "familyoracle.py": ("pgrouplab.groups",),
    "lieoracle.py": ("LieSubspace", "random_lie_subspace", "random_graded_lie_subspace", "rref"),
    "pcover.py": ("pgrouplab",),
    "suboracle.py": ("pgrouplab",),
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
    tree = ast.parse("from pgrouplab.freelie import NcPoly, LieSubspace\nfrom smallfield import rref_field\n")
    assert [n for n in _imported_names(tree) if _is_banned(n, ORACLE_BANNED["lieoracle.py"])] == [
        "pgrouplab.freelie.LieSubspace"]


# The constructor certifies the group axioms, so its checks must not run code
# that assumes them: subgroup closure presumes an identity and associativity.
VALIDATE_BANNED = ("_cosets", "_span", "_join", "closure")


def _names_read_in(source, func):
    """Every attribute or bare name that the function `func` in source reads.

    A dotted `func` such as "LieSubspace.com" names a method of a class.
    """
    body = ast.parse(source)
    for name in func.split("."):
        body = next(node for node in ast.walk(body)
                    if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name)
    for node in ast.walk(body):
        if isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


def test_validate_uses_no_closure_code():
    source = (pathlib.Path(pgrouplab.__file__).parent / "groups" / "cayley.py").read_text()
    assert [n for n in _names_read_in(source, "_validate") if n in VALIDATE_BANNED] == []


def test_validate_check_can_fail():
    source = "class G:\n    def _validate(self):\n        covered = self._members(self._span(s))\n"
    assert [n for n in _names_read_in(source, "_validate") if n in VALIDATE_BANNED] == ["_span"]


# The subspace operations work on coordinate rows by index arithmetic; the
# polynomial route is the oracle in tests/lieoracle.py and must not come back.
POLY_ROUTE = ("com_j", "lie_bracket", "basis_polys", "from_polys")


def test_subspace_operations_use_no_polynomial_route():
    source = (pathlib.Path(pgrouplab.__file__).parent / "freelie.py").read_text()
    for func in ("LieSubspace.com", "_random_span"):
        assert [n for n in _names_read_in(source, func) if n in POLY_ROUTE] == [], func


def test_polynomial_route_check_can_fail():
    source = ("class LieSubspace:\n    def plus(self):\n        pass\n"
              "    def com(self):\n        return LieSubspace.from_polys(images, p, d, degrees)\n")
    assert [n for n in _names_read_in(source, "LieSubspace.com") if n in POLY_ROUTE] == ["from_polys"]


# The Frattini kernel is counted along the restricted stabiliser chain; a
# listing of automorphisms through `_Search.extensions` must not come back.
def _kernel_route(source):
    names = list(_names_read_in(source, "frattini_action_kernel_order"))
    return "_chain_order" in names, "extensions" in names


def test_frattini_kernel_counts_along_the_chain():
    source = (pathlib.Path(pgrouplab.__file__).parent / "groups" / "aut.py").read_text()
    assert _kernel_route(source) == (True, False)


def test_frattini_kernel_route_check_can_fail():
    source = ("def frattini_action_kernel_order(g, p):\n    s = _Search(g, g, p)\n"
              "    return sum(1 for a in s.extensions(0, *s.fixed_prefix(0)) if in_kernel(a))\n")
    assert _kernel_route(source) == (False, True)


# Counts can reach 2^53 on large tables, so `_gaussprods_levels` must merge
# through `_merge_terms`, which checks that bound, and sum nothing itself.
MERGE_BANNED = ("bincount", "add", "sum", "unique", "from_terms")


def _merges_outside_the_check(source):
    names = list(_names_read_in(source, "_gaussprods_levels"))
    return "_merge_terms" not in names, [n for n in names if n in MERGE_BANNED]


def test_gaussprods_levels_merge_only_through_the_checked_merge():
    source = (pathlib.Path(pgrouplab.__file__).parent / "bounds.py").read_text()
    assert _merges_outside_the_check(source) == (False, [])


def test_gaussprods_merge_check_can_fail():
    source = "def _gaussprods_levels(d, n):\n    return np.bincount(exps, weights=counts)\n"
    assert _merges_outside_the_check(source) == (True, ["bincount"])


# Every resource limit lives in pgrouplab/guards.py: the rest of the library
# passes a table name to `guards.check` and declares no limit or message of its own.
def _guard_use(source):
    """The names a source passes to `guards.check`, and its own limit constants and guard messages."""
    checked, own = [], []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "check"
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "guards"):
            arg = node.args[0]
            checked.append(arg.value if isinstance(arg, ast.Constant) else ast.unparse(arg))
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and (
                node.id.endswith("_GUARD") or node.id.startswith("MAX_")):
            own.append(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "exceeds guard" in node.value:
            own.append(node.value)
    return checked, own


def test_every_guard_is_declared_and_checked_through_the_table():
    root = pathlib.Path(pgrouplab.__file__).parent
    checked, own = set(), {}
    for path in sorted(root.rglob("*.py")):
        names, constants = _guard_use(path.read_text())
        checked.update(names)
        if path.name != "guards.py" and constants:
            own[str(path.relative_to(root))] = constants
    assert checked == set(guards.LIMITS)  # every name checked is in the table, every entry is checked
    assert own == {}


def test_guard_table_check_can_fail():
    source = ('STATE_GUARD = 10**6\nMAX_DEGREE = 12\nguards.check("no_such_guard", n)\n'
              'raise ValueError(f"step count {n} exceeds guard {STEP}")\n')
    checked, own = _guard_use(source)
    assert checked == ["no_such_guard"] and "no_such_guard" not in guards.LIMITS
    assert own == ["STATE_GUARD", "MAX_DEGREE", " exceeds guard "]
