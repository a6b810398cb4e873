"""The package's exported names and the functions the benchmark tracer wraps exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

import coulomb_sharp

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "bench" / "tracer.py"
TEST_ONLY_MODULES = {"sympy", "hypothesis"}
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_all_names_resolve():
    for name in coulomb_sharp.__all__:
        assert hasattr(coulomb_sharp, name), name


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, function in tracer.TRACED:
        target = importlib.import_module(f"{tracer.PACKAGE}.{module}")
        assert callable(getattr(target, function, None)), f"{module}.{function}"


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
