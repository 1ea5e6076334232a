"""The lazy package namespace: every exported name, and nothing else."""

import ast
import importlib
from pathlib import Path

import pytest

import tropcong

# the names `tropcong` exports, by the module that defines them
EXPORTS = {
    "trop_core": "COEFF_B COEFF_T ContextMismatchError ExtPoint Face ToricContext "
                 "TropPoly ZeroPolynomialError bend_relations parse_poly",
    "polyhedra": "ConeH CoverBudgetExceeded EmptyPolyhedronError Fan FlagOfCones HRow "
                 "PolyhedronH common_refinement covers_equal feasible hrep_from_rays "
                 "is_empty make_flag recession_cone relative_interior_point "
                 "validate_flag",
    "toric_geom": "ClosureWitness NotInClosure closure_on_stratum "
                  "cone_closure_witnesses polyhedron_closure_membership",
    "congruence": "AddBoth CongruencePresentation Derivation Generator MulMono NotFound "
                  "PrimeMatrix RadicalCertificate Refl SearchBounds Sym Trans "
                  "congruence_in_prime flag_to_matrix has_trivial_ideal_kernel "
                  "initial_form_point initial_form_prime "
                  "prime_contains_pair prime_eval search_radical_certificate "
                  "verify_derivation verify_radical_certificate",
    "variety": "VarietySupport flag_in_variety support_of "
               "functions_equal_on_variety hypersurface intersect_supports pair_variety "
               "point_in_variety radical_member shrink_flag slice_at_height "
               "variety_of_basis",
    "resolve": "CancellativityReport ResolutionResult ResolveFailure "
               "cancellativity_harness resolve_boundary_prime",
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names.split()}


@pytest.mark.parametrize("name", sorted(NAMES))
def test_exported_name_is_the_module_object(name):
    module = importlib.import_module("tropcong." + NAMES[name])
    assert getattr(tropcong, name) is getattr(module, name)


def test_all_and_dir_list_the_exports():
    assert sorted(tropcong.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(tropcong))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from tropcong import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(tropcong, name) for name in NAMES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tropcong.no_such_name
    assert not hasattr(tropcong, "cone_generators")  # public in polyhedra, not exported


def test_submodules_import_through_the_package():
    from tropcong import _lp, polyhedra
    assert polyhedra.__name__ == "tropcong.polyhedra" and _lp.__name__ == "tropcong._lp"
    assert tropcong.polyhedra is polyhedra


REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "tropcong"
# `_lp` has no importer in src/ (test_relint_face keeps it so); it stays in the
# package only because bench/tracer.py wraps it, so its public names are
# exempt until it moves under tests/ with the reference modules.
SCAN_EXEMPT = {"_lp.py"}


def _referenced(paths) -> set:
    """Every identifier read as a Name, an Attribute or an imported alias.  A
    Name counts only where it is loaded: a binding is no use of itself."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                out.update(alias.name for alias in node.names)
    return out


def _public_top_level(tree) -> list:
    """The public names a module binds at top level: functions, classes and
    the targets of plain and annotated assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in names if not name.startswith("_")]


def test_every_import_in_src_is_read():
    """Each name a src/ module imports is read in that module: an import
    left behind by a deletion is found here, not by a reader."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unread.extend("%s: %s" % (path.name, name) for name in
                              ((alias.asname or alias.name).split(".")[0]
                               for alias in node.names)
                              if name not in read)
    assert not unread, unread


def test_every_public_name_in_src_has_a_user():
    """Each public top-level function, class or assigned name of a src/
    module is used in src/, demos/ or bench/; an export alone is no user.  A
    name that only tests use belongs beside those tests, and one that nothing
    reads belongs nowhere."""
    src_files = sorted(SRC.glob("*.py"))
    used = (_referenced(src_files)
            | _referenced(sorted((REPO / "demos").glob("*.py")))
            | _referenced(sorted((REPO / "bench").glob("*.py"))))
    unused = []
    for path in src_files:
        if path.name in SCAN_EXEMPT:
            continue
        unused.extend("%s.%s" % (path.stem, name)
                      for name in _public_top_level(ast.parse(path.read_text()))
                      if name not in used)
    assert not unused, unused


# `shrink_flag` ignores these two, and keeps them because bench/workloads.py
# passes them
PARAMS_EXEMPT = {("variety.py", "shrink_flag", "sample_pairs"),
                 ("variety.py", "shrink_flag", "seed")}


def test_every_parameter_in_src_is_read():
    """Each parameter of a src/ function is read in its body: a parameter
    left behind by a change is found here, not by a caller.  Dunder methods
    are skipped, since their protocol fixes their signatures."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.extend("%s: %s(%s)" % (path.name, name, p) for p in params
                          if p not in read and (path.name, name, p) not in PARAMS_EXEMPT)
    assert not unread, unread


# `resolve` samples the refinement check Q <= P and the cancellativity
# trials; every other module is exact and deterministic.  ROADMAP items 4
# and 8 make those two exact, and then this set empties.
RANDOM_ALLOWED = {"resolve.py"}


def _random_imports(tree) -> list:
    """Line numbers of every import of the standard `random` module:
    `import random`, `import random as r`, `from random import ...`; a
    relative `from .random import ...` is another module."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "random" for name in names):
            lines.append(node.lineno)
    return lines


def test_random_import_scan_sees_every_form():
    code = ("import random\nfrom random import Random\nimport os, random as rnd\n"
            "def f():\n    from random import randint\n"
            "import randomness\nfrom . import random_walk\nfrom .random import x\n")
    assert _random_imports(ast.parse(code)) == [1, 2, 3, 5]


def test_src_imports_random_only_where_allowed():
    found = {path.name: _random_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found) > 10
    assert {name for name, lines in found.items() if lines} <= RANDOM_ALLOWED, found
