"""Every third-party module the package imports is a declared dependency,
and every name the package exports exists."""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


def _imported_packages(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _normalize(name: str) -> str:
    # PEP 503 folds case and runs of "-", "_" and "." in a project name
    return re.sub(r"[-_.]+", "_", name).lower()


def test_third_party_imports_are_declared():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {_normalize(re.match(r"[A-Za-z0-9._-]+", req).group()) for req in requirements}
    sources = sorted((REPO / "src" / "otmatch").glob("*.py"))
    assert sources
    undeclared = {
        f"{name} ({path.name})"
        for path in sources
        for name in _imported_packages(path)
        if name not in sys.stdlib_module_names and name != "otmatch" and _normalize(name) not in declared
    }
    assert not undeclared, f"imported but not in [project].dependencies: {sorted(undeclared)}"


@pytest.mark.parametrize(
    "module", ["otmatch"] + [f"otmatch.{p.stem}" for p in sorted((REPO / "src" / "otmatch").glob("[!_]*.py"))]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"


def _readers(path: Path, name: str) -> set[str]:
    """Qualified names of the functions and classes of a module that read
    ``name``, as an attribute ``.name`` or as a bare name."""
    readers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        elif (isinstance(node, ast.Attribute) and node.attr == name) or (
            isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
        ):
            readers.add(".".join((path.stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), ())
    return readers


def test_cost_over_eps_has_one_semidual_reader():
    # C/eps is formed only where it is used: every induced-coupling quantity
    # derives from the one Gibbs exponent, and lambda_bound's +C/eps term is
    # a different quantity
    readers = set()
    for name in ("semidual.py", "solvers.py"):
        readers |= _readers(REPO / "src" / "otmatch" / name, "epsilon")
    assert readers == {"semidual._gibbs_exponent", "solvers.lambda_bound"}, sorted(readers)


@pytest.mark.parametrize("update", ["_sign_update"])
def test_update_maps_are_applied_only_by_run(update):
    # run is the one code that applies a method's update, and verify checks
    # the update statements on run; a second caller would be a second step
    # path that no check covers
    readers = set().union(*(_readers(p, update) for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {"solvers.run"}, sorted(readers)


def test_the_box_clamp_is_applied_only_by_run():
    # the projected methods are the chi-square matching step followed by the
    # clamp; a second clamp in solvers would be a projected step no
    # equivalence check covers
    readers = _readers(REPO / "src" / "otmatch" / "solvers.py", "clip")
    assert readers == {"solvers.run"}, sorted(readers)


def test_link_corrections_are_applied_only_by_run_and_the_primal_forms():
    # run is the one update path; project_y and v_link are the coupling-space
    # forms verify compares it with.  A third reader would be a matching
    # update no equivalence check covers
    readers = set().union(*(_readers(p, "link_correction") for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {"solvers.run", "primal.project_y", "primal.v_link"}, sorted(readers)


def test_induced_cache_is_read_only_by_the_two_loops():
    # the solver runner and the flow integrator are the iterative loops over
    # induced marginals; a third reader would be a loop no update check covers
    readers = set().union(*(_readers(p, "InducedCache") for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {"solvers.run", "mirrorflow.flow_run"}, sorted(readers)


def test_potentials_are_checked_where_they_enter():
    # shape and finiteness are checked once, by one helper: where the
    # semi-dual calculus takes phi, at the start of the two loops over a
    # cache, and at the bridge.  A fifth reader would be an entry beside them
    readers = set().union(*(_readers(p, "_potential") for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {
        "semidual.induced_marginal",
        "solvers.run",
        "mirrorflow.flow_run",
        "bridge.bridge_from_potential",
    }, sorted(readers)


def test_the_cost_is_read_through_one_accessor():
    # an instance stores a named cost as its kind, never as an n x m matrix:
    # every reader takes C[rows, cols] from measures._cost_block, which builds
    # a named cost's block from the points (a view of a stored matrix).  The
    # readers are the Gibbs exponent, the two bounds, the bridge's cost check,
    # verify's classic Sinkhorn and the instance's own validation pass
    sources = list((REPO / "src" / "otmatch").glob("*.py"))
    readers = set().union(*(_readers(p, "_cost_block") for p in sources))
    assert readers == {
        "semidual._gibbs_exponent",
        "solvers.lambda_bound",
        "solvers.default_bound",
        "bridge.bridge_from_potential",
        "verify.check_sinkhorn_conformance",
        "measures._cost_minima",
    }, sorted(readers)
    # the stored field itself is read by the accessor, the instance and the
    # digest (an explicit matrix's bytes); classic_log_sinkhorn's argument
    # shares the name
    readers = set().union(*(_readers(p, "cost") for p in sources))
    assert readers == {
        "measures._cost_block",
        "measures.Instance.__post_init__",
        "measures.Instance.cost_kind",
        "cli._digest",
        "verify.classic_log_sinkhorn",
    }, sorted(readers)
    # a whole named matrix is built only to check an explicit cost against it
    readers = set().union(*(_readers(p, "cost_matrix") for p in sources))
    assert readers == {"bridge.bridge_from_potential"}, sorted(readers)


def test_stored_arrays_are_converted_where_they_enter():
    # every type that stores an array it was handed converts it with the one
    # helper, to a read-only array of its own; the file loader reads weights
    # through it to check their sum before a measure takes them
    readers = set().union(*(_readers(p, "_as_float_array") for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {
        "measures.DiscreteMeasure.__post_init__",
        "measures.Instance.__post_init__",
        "measures._load_measure",
        "kernels.Gram.__post_init__",
        "semidual.Coupling.__post_init__",
    }, sorted(readers)


def test_log_p_is_formed_only_for_the_identity_link():
    # every evaluator returns (phi_plus, p); the Sinkhorn update is the one
    # reader of log p, so only run forms it, and only for the identity link
    readers = set().union(*(_readers(p, "_log_mass") for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {"solvers.run"}, sorted(readers)


def test_plus_transform_runs_only_where_no_cache_is_at_hand():
    # the loops read phi_plus from their InducedCache; a plus_transform
    # call inside a loop would be a second exponential pass beside the
    # cache's matrix.  The one-shot readers are the objective, the coupling
    # and the kernel-ascent rate's initial KL
    readers = set().union(*(_readers(p, "plus_transform") for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {"semidual.semidual_value", "semidual.coupling", "verify.check_thm_ksga_rate"}, sorted(readers)


def test_the_rounded_plan_certifies_only_the_oracle():
    # the primal value of the rounded plan is the oracle's certificate; a
    # second reader (a summary's gap bound, a check command) names itself here
    readers = set().union(*(_readers(p, "_rounded_primal") for p in (REPO / "src" / "otmatch").glob("*.py")))
    assert readers == {"solvers.oracle_solve"}, sorted(readers)


def test_couplings_are_materialized_only_where_a_matrix_is_read():
    # a KL between induced couplings has a closed form in the potentials,
    # their transforms and marginals, and the rounded plan is formed in row
    # blocks; an n x m coupling is built only for the coupling itself, the
    # exact column fallback and the primal-view update check
    sources = list((REPO / "src" / "otmatch").glob("*.py"))
    readers = set().union(*(_readers(p, name) for p in sources for name in ("coupling", "_log_coupling")))
    assert readers == {
        "semidual.coupling",
        "semidual._log_marginal_cols",
        "verify.check_update_equivalences",
    }, sorted(readers)


def test_criteria_call_the_shared_checkers():
    # the acceptance criteria check each paper statement through the checker
    # verify uses; importing a loop primitive would let a criterion grow its
    # own copy of that check again
    primitives = {"_sign_update", "link_correction", "t_next", "Trace", "TraceRecord", "classic_log_sinkhorn"}
    tree = ast.parse((REPO / "tests" / "test_acceptance.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not imported & primitives, sorted(imported & primitives)


def _names_read(path: Path) -> set[str]:
    """Names a module reads, as a bare name or an attribute, outside the
    function or class that defines that name."""
    reads = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in defining:
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in defining:
            reads.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return reads


def _public_members(mod) -> list[str]:
    """``Class.member`` for the dataclass fields and the public methods and
    properties of every public class a module defines."""
    members = []
    for cls_name, cls in vars(mod).items():
        if cls_name.startswith("_") or not inspect.isclass(cls) or cls.__module__ != mod.__name__:
            continue
        names = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        names += [
            name
            for name, value in vars(cls).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
        ]
        members += [f"{cls_name}.{name}" for name in names]
    return members


def test_every_public_name_is_used_by_the_package():
    # a public name stays only if package code reads it; the re-exports in
    # __init__.py do not count as a use.  The same holds for the fields and
    # public methods of public classes.
    modules = sorted(p for p in (REPO / "src" / "otmatch").glob("*.py") if p.name != "__init__.py")
    read = set().union(*(_names_read(p) for p in modules))
    unused = []
    for path in modules:
        mod = importlib.import_module(f"otmatch.{path.stem}")
        unused += [f"{path.stem}.{name}" for name in getattr(mod, "__all__", []) if name not in read]
        unused += [
            f"{path.stem}.{member}" for member in _public_members(mod) if member.rsplit(".", 1)[1] not in read
        ]
    assert not unused, f"exported but read only by tests: {unused}"
