"""The package's exported names and the functions the benchmark tracer wraps exist."""

import importlib
import importlib.util
from pathlib import Path

import coulomb_sharp

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
