"""One repetition of a workload, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON

SPEC_JSON holds ``commands`` (a list of argv lists for
``coulomb_sharp.cli.main``), ``trace`` (0 or 1), ``run_id`` and, when
tracing, ``spans_path``.  The program is imported before anything else so
that the clock reading taken right after it marks the end of set-up; the
parent subtracts its own reading taken just before it started this process.
With no commands the process only measures set-up.

Prints one JSON object: the set-up clock reading, the wall time of the
commands, the calibration kernel's times (below), peak resident
memory, each command's exit code and output and, when tracing, the
tracer's totals.
"""

import time

import coulomb_sharp.cli as cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

# Host-speed calibration.  The host's speed drifts by up to 2x within minutes
# (other tenants share the hardware, and CPU time drifts with wall time), which
# would swamp the changes the benchmark must show.  A fixed kernel of about
# 2 ms -- small-fraction arithmetic, which slows like the interpreter-bound
# workloads, then big-integer products, which slow like the Sturm kernel -- is
# timed SETUP_SAMPLES times right after the import, and every SAMPLE_PERIOD_S
# while the commands run, from a SIGALRM handler whose own time is taken out
# of the commands' wall time.  run.py divides set-up time by the median of the
# first samples, and wall time by the kernel time the commands ran at
# (_effective_kernel_s).  Changing the kernel, SETUP_SAMPLES, SAMPLE_PERIOD_S
# or NEIGHBOURS changes every reported time.
SETUP_SAMPLES = 20
SAMPLE_PERIOD_S = 0.1
NEIGHBOURS = 10  # samples on each side that smooth one sample: about a second
_BIG_A, _BIG_B, _BIG_M = 3**4000 + 1, 7**2500 + 3, 11**3000 + 7


def _kernel_s() -> float:
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 400):
        acc += Fraction(k * k + 1, 3 * k + 7)
    x = _BIG_A
    for _ in range(6):
        x = x * _BIG_B % _BIG_M
    return time.perf_counter() - start


def _effective_kernel_s(samples: list[float]) -> float:
    """Kernel time at which the commands ran, weighting every sampling period.

    Each period's speed is the median kernel time of the samples within
    NEIGHBOURS of it, so drift inside a long repetition is followed; the
    result k makes wall / k the sum of each period's time divided by its own
    kernel time.
    """
    local = [statistics.median(samples[max(0, i - NEIGHBOURS) : i + NEIGHBOURS + 1]) for i in range(len(samples))]
    return len(local) / sum(1 / k for k in local)


class _Sampler:
    """SIGALRM handler: times the kernel and keeps its own running time."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self.own_s = 0.0

    def __call__(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel_s.append(_kernel_s())
        self.own_s += time.perf_counter() - start


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def main() -> int:
    setup_kernel_s = [_kernel_s() for _ in range(SETUP_SAMPLES)]
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()
    sampler = _Sampler()
    if spec["commands"]:
        signal.signal(signal.SIGALRM, sampler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    results = []
    clock = time.perf_counter
    wall_start = clock()
    for argv in spec["commands"]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception:  # a traceback is a failed command, not a harness crash
                code = None
                traceback.print_exc(file=err)
        results.append({"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall_s = clock() - wall_start
    signal.setitimer(signal.ITIMER_REAL, 0)
    payload = {
        "ready": READY,
        "setup_kernel_s": statistics.median(setup_kernel_s),
        "wall_s": wall_s - sampler.own_s,
        "kernel_s": _effective_kernel_s(sampler.kernel_s or setup_kernel_s),
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": results,
    }
    if tracer is not None:
        totals = tracer.totals()
        output_bytes = 0
        for result in results:
            output_bytes += len(result["stdout"].encode("utf-8"))
            path = _out_path(result["argv"])
            if path is not None and os.path.exists(path):
                output_bytes += os.path.getsize(path)
        totals["cli.output_bytes"] = output_bytes
        payload["totals"] = totals
        tracer.dump(spec["spans_path"])
    sys.stdout.write(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
