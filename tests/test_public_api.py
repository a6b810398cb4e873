"""The package's exported names and the functions the benchmark tracer wraps exist; its result types are values."""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

import coulomb_sharp
from coulomb_sharp import cli, optima, spectrum, verification
from coulomb_sharp.exact import Polynomial, RootBracket, ratfun_reduce

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"
TEST_ONLY_MODULES = {"sympy", "hypothesis"}
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}
MPMATH_NAMES = {"mpmath", "mp", "mpmath.mp"}
MPMATH_PRECISION_CONTEXTS = {"workdps", "workprec"}
MPMATH_PRECISION_FIELDS = {"dps", "prec"}


# Each call builds a new instance of one result type from the same values.
RESULTS = {
    "Polynomial": lambda: Polynomial.from_coefficients([Fraction(1, 2), 0, 3]),
    "RationalFunctionPair": lambda: ratfun_reduce(
        Polynomial.from_coefficients([1, 2]), Polynomial.from_coefficients([-1, 0, 2])
    ),
    "RootBracket": lambda: RootBracket(Fraction(1, 3), Fraction(1, 2), 1, -1),
    "LevelData": lambda: spectrum.levels(5, 9)[1],
    "StarResult": lambda: optima.a_star(7),
    "CheckRecord": lambda: verification.check_lt_gamma1_grid(5, range(19, 20), 2)[0],
    "SweepConfig": lambda: cli.SweepConfig(d_values=[4], gamma=Fraction(3, 2)),
}


@pytest.mark.parametrize("name", ["Polynomial", "RationalFunctionPair", "RootBracket", "LevelData", "StarResult"])
def test_equal_results_compare_and_hash_equal(name):
    first, second = RESULTS[name](), RESULTS[name]()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


@pytest.mark.parametrize("name", RESULTS)
def test_results_are_immutable(name):
    result = RESULTS[name]()
    fields = getattr(result, "_fields", None) or result.__slots__
    assert fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(result, field, None)
        with pytest.raises(AttributeError):
            delattr(result, field)
    with pytest.raises(AttributeError):
        result.unknown_field = None
    assert result == RESULTS[name]()


def test_all_names_resolve():
    for name in coulomb_sharp.__all__:
        assert hasattr(coulomb_sharp, name), name


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_exist():
    tracer = load_tracer()
    for module, function in tracer.TRACED:
        target = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"


def package_modules():
    """Each module of the package but __init__, parsed."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src").rglob("*.py"))
        if path.name != "__init__.py"
    }


def names_loaded(modules):
    """Every name and attribute read anywhere in the given modules."""
    loaded = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    return loaded


def test_every_export_is_used_in_the_package_or_traced():
    # An exported name that no module reads is public API nothing uses.  The
    # benchmark tracer still wraps some names whose callers have moved on.
    loaded = names_loaded(package_modules())
    traced = {function for _, function in load_tracer().TRACED}
    unused = sorted(set(coulomb_sharp.__all__) - {"__version__"} - loaded - traced)
    assert not unused, f"exported but never loaded in src/: {unused}"


def test_every_private_function_is_called_in_the_package():
    # A private helper that only tests call is code the program does not run.
    modules = package_modules()
    loaded = names_loaded(modules)
    private = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in loaded
    ]
    assert not private, f"private but never loaded in src/: {private}"


def test_every_public_function_is_used_in_the_package_or_traced():
    # A public function or class that no module reads is API nothing uses;
    # the benchmark tracer still wraps some names whose callers have moved on.
    modules = package_modules()
    loaded = names_loaded(modules) | {function for _, function in load_tracer().TRACED}
    unused = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in loaded
    ]
    assert not unused, f"public but never loaded in src/ nor traced: {unused}"


def private_cross_module_reads(package_dir):
    """Each read, in a module under package_dir, of a single-underscore name of another package module.

    Both forms count: m._x for a module bound by `from . import m`, and `from .m import _x`.
    """
    reads = []
    for path in sorted(package_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    bound |= {alias.asname or alias.name for alias in node.names}
                else:
                    reads += [f"{path.stem} imports {node.module}.{a.name}" for a in node.names if is_private(a.name)]
        reads += [
            f"{path.stem} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
            and is_private(node.attr)
        ]
    return reads


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    # Each decision has one home module; the others read it through a public name.
    reads = private_cross_module_reads(ROOT / "src" / "coulomb_sharp")
    assert not reads, f"private names read across modules: {reads}"


def test_package_never_imports_test_only_oracles():
    # sympy and hypothesis are in the `test` extra only; the package must run without them.
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                assert name.split(".")[0] not in TEST_ONLY_MODULES, f"{path.name} imports {name}"


def test_package_reads_no_environment():
    # Flags and the config file are the only inputs, so one command line always writes the same bytes.
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                assert node.attr not in ENVIRONMENT_READERS, f"{path.name} reads os.{node.attr}"
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
                assert not names & ENVIRONMENT_READERS, f"{path.name} imports {names & ENVIRONMENT_READERS}"


def test_only_highprec_takes_a_precision():
    # The strict check escalates its precision until the enclosures are
    # disjoint; no other function may offer the digit count as an option.
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.stem == "highprec":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                arguments = node.args
                names = [a.arg for a in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs)]
                names += [a.arg for a in (arguments.vararg, arguments.kwarg) if a is not None]
                owner = getattr(node, "name", "lambda")
                assert "precision" not in names, f"{path.name}:{node.lineno} {owner} takes a precision"


def test_only_highprec_sets_mpmath_precision():
    # A root or quotient read off a floating-point run at a chosen precision is
    # not a proof; outside highprec, irrational values come from integer roots.
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.stem == "highprec":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                assert node.attr not in MPMATH_PRECISION_CONTEXTS, f"{path.name} enters mpmath .{node.attr}"
                owner = ast.unparse(node.value)
                assert not (node.attr == "sqrt" and owner in MPMATH_NAMES), f"{path.name} calls {owner}.sqrt"
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        assert target.attr not in MPMATH_PRECISION_FIELDS, f"{path.name} sets .{target.attr}"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
                names = {alias.name for alias in node.names} & (MPMATH_PRECISION_CONTEXTS | {"sqrt"})
                assert not names, f"{path.name} imports {names} from mpmath"


def test_only_highprec_imports_mpmath():
    # One integer arithmetic encloses every order; outside highprec, mpmath
    # names an annotation only, imported under TYPE_CHECKING.
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.stem == "highprec":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        annotations = {
            id(child)
            for node in ast.walk(tree)
            if isinstance(node, ast.If) and ast.unparse(node.test) in {"TYPE_CHECKING", "typing.TYPE_CHECKING"}
            for statement in node.body
            for child in ast.walk(statement)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if id(node) not in annotations:
                assert "mpmath" not in {name.split(".")[0] for name in names}, f"{path.name}:{node.lineno} imports mpmath"


def test_sources_parse_at_the_declared_python_floor():
    # pyproject.toml declares requires-python >= 3.10, which no test run on a
    # newer interpreter checks by itself.  feature_version checks the grammar
    # only (it refuses, say, 3.11's except*), not library APIs: a call to a
    # function added after 3.10 still parses.
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
