"""Tests of the benchmark harness itself: tracer, oracles and seeded inputs.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py

The traced-run tests start one child interpreter per workload (about a
minute in all on a 2-core machine).
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _load_spans(path: Path) -> list[list]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    assert header["fields"] == ["id", "name", "start", "end", "parent", "self_s"]
    return [json.loads(line) for line in lines[1:]]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced repetition (seed 0, rep 0) of every workload, plus one untraced verify-all."""
    runs = {}
    for name, make_commands in workloads.WORKLOADS.items():
        workdir = tmp_path_factory.mktemp(name)
        commands = make_commands(0, 0, workdir)
        spans_path = workdir / "spans.jsonl"
        spec = {"commands": [c.argv for c in commands], "trace": 1, "run_id": name, "spans_path": str(spans_path)}
        payload, error = run._spawn(spec, 170)
        assert payload is not None, error
        runs[name] = (workdir, commands, payload, spans_path)
    return runs


def test_traced_report_is_byte_identical(traced, tmp_path):
    workdir, _, _, _ = traced["verify-all"]
    plain = workloads.WORKLOADS["verify-all"](0, 0, tmp_path)
    payload, error = run._spawn({"commands": [c.argv for c in plain], "trace": 0, "run_id": "plain"}, 170)
    assert payload is not None, error
    traced_sha = hashlib.sha256((workdir / "verify-all.jsonl").read_bytes()).hexdigest()
    plain_sha = hashlib.sha256((tmp_path / "verify-all.jsonl").read_bytes()).hexdigest()
    assert traced_sha == plain_sha


def test_traced_outputs_pass_their_oracles(traced):
    for name, (_, commands, payload, _) in traced.items():
        for command, outcome in zip(commands, payload["commands"]):
            failed, problems = command.check(outcome["exit"], outcome["stdout"])
            assert failed == 0, (name, problems)


def test_every_wrapped_name_is_called_on_some_workload(traced):
    called = set()
    for _, _, payload, _ in traced.values():
        called |= {key[: -len(".calls")] for key, value in payload["totals"].items() if key.endswith(".calls") and value}
    wrapped = {f"{module}.{func}" for module, func in tracer.TRACED}
    wrapped |= {tracer.SUITE_PREFIX + suite for suite in ("lt-gamma1", "d3-envelopes", "coefficients", "identities", "asymptotics", "clr")}
    assert wrapped - called == set()


def test_self_time_never_exceeds_inclusive_time(traced):
    for name, (_, _, _, spans_path) in traced.items():
        spans = _load_spans(spans_path)
        assert spans, name
        for index, span_name, start, end, parent, self_s in spans:
            assert self_s <= end - start, (name, span_name)
            if parent is not None:
                p = spans[parent]
                assert p[2] <= start and end <= p[3], (name, span_name, p[1])


def test_layer_sizing(traced):
    """The layer shares the benchmark's documentation predicts, in kind."""
    def share(name, key):
        totals = traced[name][2]["totals"]
        return totals.get(key, 0.0) / totals["cli.main.s"]

    assert share("t-star-large-d", "exact.sturm_count.s") > 0.5
    assert share("lt-sweep-gamma", "highprec.validated_eval.s") > 0.5
    optima = share("verify-all", "optima.q_star.s") + share("verify-all", "optima.a_star.s")
    ratfun = share("verify-all", "excess.partial_fraction_sum.s")
    assert optima > 0.2 and ratfun > 0.2
    figures = traced["figures-fine"][2]["totals"]
    assert "exact.sturm_count.calls" not in figures and "exact.ratfun_reduce.calls" not in figures


def test_install_replaces_every_binding_and_uninstall_restores():
    import coulomb_sharp.cli  # noqa: F401  (loads every module of the package)
    from coulomb_sharp import cli, exact, highprec, optima, phase_space, spectrum, verification

    originals = {(m, f): getattr(sys.modules[f"coulomb_sharp.{m}"], f) for m, f in tracer.TRACED}
    original_suites = dict(verification.SUITES)
    t = tracer.Tracer("binding-test")
    t.install()
    try:
        assert optima.sturm_count is exact.sturm_count is not originals[("exact", "sturm_count")]
        assert optima.bisect_root is exact.bisect_root is not originals[("exact", "bisect_root")]
        assert spectrum.validated_eval is phase_space.validated_eval is highprec.validated_eval
        assert highprec.validated_eval is not originals[("highprec", "validated_eval")]
        assert cli.render_decimal is not originals[("cli", "render_decimal")]
        leftovers = set(map(id, originals.values())) | set(map(id, original_suites.values()))
        for name, module in sys.modules.items():
            if name.startswith("coulomb_sharp"):
                for key, value in vars(module).items():
                    assert id(value) not in leftovers, f"{name}.{key} still unwrapped"
                    if isinstance(value, dict) and key != "__builtins__":
                        assert not leftovers & set(map(id, value.values())), f"{name}.{key} still unwrapped"
        assert optima.q_star(5).value == Fraction(15, 8)
        assert t.totals()["optima.q_star.calls"] == 1
    finally:
        t.uninstall()
    assert exact.sturm_count is originals[("exact", "sturm_count")]
    assert optima.sturm_count is originals[("exact", "sturm_count")]
    assert verification.SUITES == original_suites


def test_t_star_dimensions_are_seeded_within_two():
    assert workloads.t_star_dimensions(0, 0) == (40, 60, 80)
    for seed in (0, 1, 7, 123, 2**31):
        assert workloads.t_star_dimensions(seed, 0) == workloads.t_star_dimensions(seed, 0)
        cycle = [workloads.t_star_dimensions(seed, rep) for rep in range(5)]
        for i, base in enumerate(workloads.T_STAR_DIMENSIONS):
            assert sorted(dims[i] - base for dims in cycle) == [-2, -1, 0, 1, 2]


def test_lt_grid_start_moves_but_point_count_does_not(tmp_path):
    starts = {workloads.lt_grid_start(seed, 0) for seed in range(13)}
    assert len(starts) == 13 and workloads.lt_grid_start(0, 0) == 12
    command = workloads.WORKLOADS["lt-sweep-gamma"](4, 0, tmp_path)[0]
    assert command.operations == 6 * 385 + 1880


def test_oracles_reject_wrong_outputs(tmp_path):
    report = tmp_path / "r.jsonl"
    report.write_text('{"verdict":"pass"}\n{"verdict":"fail"}\n', encoding="utf-8")
    check = workloads._check_report(report, 2, None)
    assert check(0, "")[0] == 1
    assert check(1, "")[0] == 2
    assert workloads._check_report(report, 2, "0" * 64)(0, "")[0] == 2

    zero_width = {"d": 6, "bracket": {"lower": "3", "upper": "3"}}
    lo, hi = workloads.t_star_window(6)
    assert workloads._check_t_star(6)(0, json.dumps(zero_width))[0] == 1
    outside = {"d": 6, "bracket": {"lower": str(hi), "upper": str(hi + Fraction(1, 10**7))}}
    assert workloads._check_t_star(6)(0, json.dumps(outside))[0] == 1

    csv_path = tmp_path / "f-plot.csv"
    csv_path.write_text("t,f\n0,1\n0.001,-1\n", encoding="utf-8")
    failed, problems = workloads._check_figure("f-plot", csv_path)(0, "")
    assert failed == 1 and any("sign changes" in p for p in problems)
