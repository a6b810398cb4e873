"""Benchmark of the coulomb-sharp CLI: time to verdict on four workloads.

Usage, from the repository root:

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all          # the four workloads in turn

Every repetition runs the workload's commands through
``coulomb_sharp.cli.main`` in a fresh single-threaded interpreter
(``bench/child.py``), so it pays cold caches as a user's CLI call does.
Repetitions run one at a time; the run stops before a repetition that would
end after ``--seconds`` (the previous one's duration is the estimate), once
it has three.  Before them the run starts a few interpreters that only import
the program, so set-up time has enough samples.

Times are reported in reference seconds: each measured time is scaled by
the host's speed at that moment, taken from a fixed calibration kernel timed
in the same process (see ``child.py``), because this host's speed drifts by
up to 2x within minutes.  The summary also prints the plain wall-clock
medians (``wall_raw_s``, ``setup_raw_s``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions of the same inputs and reports the per-layer metrics, medians
over the traced repetitions, plus ``trace_overhead_s``.  Every command's
output is checked by its oracle in ``workloads.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with run provenance and every sample, goes to
``bench/.work/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = Path("bench") / ".work"  # relative to ROOT, which is the working directory
SETUP_PROBES = 5
MIN_REPETITIONS = 3
# Times are reported in reference seconds: measured seconds x REF_KERNEL_S /
# the median time of child.py's calibration kernel in the same process, i.e.
# seconds on a host where that kernel takes 2 ms (about what it takes alone on
# this benchmark's 2-core x86-64 development host).
REF_KERNEL_S = 0.002
DEADLINE_S = 160  # an invocation must end within 180 s; children are killed at this point

sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    setup_s: list[float] = field(default_factory=list)
    setup_raw_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    wall_raw_s: list[float] = field(default_factory=list)
    peak_rss_mib: list[float] = field(default_factory=list)
    traced_wall_s: list[float] = field(default_factory=list)
    totals: list[dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    commands: list[dict] = field(default_factory=list)


def _spawn(spec: dict, timeout: float) -> tuple[dict | None, str]:
    """Run child.py once; return its payload with ``setup_raw_s`` added, or an error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env.pop("COULOMB_SHARP_PRECISION", None)
    argv = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"repetition killed after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {err.strip()[-2000:]}"
    payload = json.loads(out)
    payload["setup_raw_s"] = payload["ready"] - start
    return payload, ""


def _add_setup(result: RunResult, payload: dict) -> None:
    result.setup_raw_s.append(payload["setup_raw_s"])
    result.setup_s.append(payload["setup_raw_s"] * REF_KERNEL_S / payload["setup_kernel_s"])


def _repetition(result: RunResult, rep: int, traced: bool, deadline: float) -> bool:
    name = result.workload
    workdir = WORK / f"{name}-{os.getpid()}-{rep}-{int(traced)}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = WORKLOADS[name](result.seed, rep, workdir)
        spec = {
            "commands": [c.argv for c in commands],
            "trace": int(traced),
            "run_id": f"{name}/seed{result.seed}/rep{rep}",
            "spans_path": str(WORK / f"spans-{name}.jsonl"),
        }
        result.commands.append({"rep": rep, "traced": traced, "argv": spec["commands"]})
        operations = sum(c.operations for c in commands)
        result.attempted += operations
        payload, error = _spawn(spec, deadline - time.monotonic())
        if payload is None:
            result.failed += operations
            result.problems.append(f"rep {rep}: {error}")
            return False
        for command, outcome in zip(commands, payload["commands"]):
            failed, problems = command.check(outcome["exit"], outcome["stdout"])
            result.failed += failed
            result.problems.extend(f"rep {rep}: {p}" for p in problems)
        wall_s = payload["wall_s"] * REF_KERNEL_S / payload["kernel_s"]
        if traced:
            result.traced_wall_s.append(wall_s)
            result.totals.append(payload["totals"])
        else:
            result.wall_s.append(wall_s)
            result.wall_raw_s.append(payload["wall_s"])
            _add_setup(result, payload)
            result.peak_rss_mib.append(payload["maxrss_kib"] / 1024)
        return True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload: str, seed: int, seconds: int, trace: bool) -> RunResult:
    result = RunResult(workload, seed, trace)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    for probe in range(SETUP_PROBES):
        payload, error = _spawn({"commands": [], "trace": 0, "run_id": f"probe{probe}"}, deadline - time.monotonic())
        if payload is None:
            result.problems.append(f"set-up probe {probe}: {error}")
        else:
            _add_setup(result, payload)
    rep = 0
    while True:
        began = time.monotonic()
        ok = _repetition(result, rep, False, deadline)
        if ok and trace:
            ok = _repetition(result, rep, True, deadline)
        rep += 1
        now = time.monotonic()
        # Stop before a repetition that would end after --seconds, once there
        # are enough samples for a median (traced runs need one pair).
        enough = trace or rep >= MIN_REPETITIONS
        if not ok or (enough and now + (now - began) - start > seconds):
            return result


def _derived(totals: dict[str, float]) -> dict[str, float]:
    values = dict(totals)
    values["optima.window_levels"] = totals.get("optima.q_value.calls", 0) + totals.get(
        "optima.a_value_squared.calls", 0
    )
    computes = totals.get("highprec.validated_eval.computes", 0)
    calls = totals.get("highprec.validated_eval.calls", 0)
    values["highprec.validated_eval.accept_ratio"] = calls / computes if computes else 0.0
    return values


def metrics(result: RunResult, spec: list[dict]) -> dict[str, dict]:
    """Medians of the samples, named and with units as in BENCHMARK.json."""
    median = statistics.median
    if result.trace:
        per_rep = [_derived(t) for t in result.totals]
        values = {m["name"]: median(v.get(m["name"], 0) for v in per_rep) for m in spec}
        values["trace_overhead_s"] = median(result.traced_wall_s) - median(result.wall_s)
    else:
        values = {
            "wall_s": median(result.wall_s),
            "setup_s": median(result.setup_s),
            "peak_rss_mib": median(result.peak_rss_mib),
        }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "commit": _git_commit(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def _summary(result: RunResult, values: dict[str, dict]) -> list[str]:
    ratio = result.failed / result.attempted if result.attempted else 1.0
    lines = [
        f"{result.workload}: seed {result.seed}, trace {int(result.trace)}, "
        f"{len(result.wall_s)} untraced + {len(result.traced_wall_s)} traced repetitions, "
        f"{result.attempted} operations"
    ]
    rows = [(name, m["value"], m["unit"]) for name, m in values.items()]
    if result.wall_raw_s:
        rows.append(("wall_raw_s", statistics.median(result.wall_raw_s), "s"))
    rows.append(("setup_raw_s", statistics.median(result.setup_raw_s), "s"))
    rows.append(("fail_ratio", ratio, "1"))
    width = max(len(name) for name, _, _ in rows)
    lines += [f"  {name:<{width}}  {value:.6g} {unit}" for name, value, unit in rows]
    lines += [f"  problem: {p}" for p in result.problems[:20]]
    return lines


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "coulomb_sharp" / "cli.py").is_file():
        print(f"error: no coulomb_sharp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    spec = config["per_layer"] if args.trace else config["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    origin = provenance(args.seed)
    combined: dict[str, dict] = {}
    attempted = failed = 0
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace))
        if not result.wall_s or not result.setup_s or (args.trace and not result.totals):
            print(f"error: {name} produced no measurement", file=sys.stderr)
            for problem in result.problems[:20]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        values = metrics(result, spec)
        print("\n".join(_summary(result, values)))
        argv_seen = []
        for command in result.commands:
            argv_seen += [a for a in command["argv"] if a not in argv_seen]
        print("provenance " + json.dumps({**origin, "workload": name, "argv": argv_seen}))
        record = {
            "workload": name,
            "provenance": origin,
            "commands": result.commands,
            "samples": {
                "setup_s": result.setup_s,
                "setup_raw_s": result.setup_raw_s,
                "wall_s": result.wall_s,
                "wall_raw_s": result.wall_raw_s,
                "peak_rss_mib": result.peak_rss_mib,
                "traced_wall_s": result.traced_wall_s,
            },
            "attempted": result.attempted,
            "failed": result.failed,
            "problems": result.problems,
            "metrics": values,
        }
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        out = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        attempted += result.attempted
        failed += result.failed
        if len(names) == 1:
            combined = values
        else:
            combined.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
