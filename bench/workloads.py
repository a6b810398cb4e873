"""The four benchmark workloads: their commands, seeded inputs and output oracles.

A workload turns ``(seed, rep, workdir)`` into a list of ``coulomb-sharp``
commands; the same seed and repetition always give the same commands.  The seed picks the free
inputs (the ``t-star-large-d`` dimensions, the ``lt-sweep-gamma`` grid
start) and the repetition index rotates them, so every run covers the same
spread of inputs whatever its seed; ``verify-all`` and ``figures-fine`` are
fixed commands.

Each command carries an oracle that checks its output without reusing the
code path under test, and returns how many of the command's operations
failed.  An operation is a report record for the verify workloads and a
command for the others; a command that exits non-zero or whose output
differs from its reference fails all of its operations.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Measured at the seed commit (CPython 3.11, mpmath on its python backend).
VERIFY_ALL_SHA256 = "393870d5a69c303ffbd2eded5dd959ca72b85ba20e92bf4eb9ce85614a204d86"
VERIFY_ALL_RECORDS = 5261

FIGURE_STEP = "1/1000"
# figure -> (data rows, CSV sha256 at the seed commit)
FIGURE_REFERENCE = {
    "lt-d3": (18000, "04c8b08a3017e63bdba9a98ac22afa4141891b9a94c3653e9bf3cffbb54e1880"),
    "rd-vs-qd": (8000, "4a92fc2bf8db4dc36d69bc1f224595ddb25bb3a7768a19d55e4720cde68a9acb"),
    "f-plot": (8895, "434033ea4b390b9a7c0731f4a6b848965525498d28c1f722cf22cce78aee8ad9"),
}

T_STAR_DIMENSIONS = (40, 60, 80)
T_STAR_OFFSETS = (0, 1, -1, 2, -2)
T_STAR_TOL = "1/1000000"

LT_GAMMA = "7/3"
LT_D_VALUES = list(range(5, 11))
LT_START = Fraction(12)
LT_SHIFTS = 13  # grid start is LT_START + k/13 for k in 0..12
LT_SPAN = Fraction(48)
LT_STEP = Fraction(1, 8)
LT_GRID_POINTS = int(LT_SPAN / LT_STEP) + 1
D3_ENVELOPE_RECORDS = 1800 + 80  # d3 envelope grid plus the phi-envelope checks

Check = Callable[[int | None, str], tuple[int, list[str]]]


@dataclass(frozen=True)
class Command:
    argv: list[str]
    operations: int
    check: Check


# -- oracles ---------------------------------------------------------------------


def _check_report(path: Path, expected: int, sha256: str | None) -> Check:
    """Record count, every verdict `pass`, and the sha256 when a reference exists."""

    def check(code: int | None, stdout: str) -> tuple[int, list[str]]:
        if code != 0:
            return expected, [f"{path.name}: exit code {code}"]
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return expected, [f"{path.name}: no report written"]
        lines = data.decode("utf-8").splitlines()
        if len(lines) != expected:
            return expected, [f"{path.name}: {len(lines)} records, expected {expected}"]
        if sha256 is not None and hashlib.sha256(data).hexdigest() != sha256:
            return expected, [f"{path.name}: sha256 differs from the reference"]
        try:
            not_pass = sum(json.loads(line)["verdict"] != "pass" for line in lines)
        except (ValueError, KeyError, TypeError) as exc:
            return expected, [f"{path.name}: malformed record ({exc!r})"]
        return not_pass, [f"{path.name}: {not_pass} records not pass"] if not_pass else []

    return check


def t_star_window(d: int) -> tuple[Fraction, Fraction]:
    """Open window (d^2/6 - 3d/2 + 7/3, d^2/6 - d/2 - 2/3) that must contain t*."""
    return (
        Fraction(d * d, 6) - Fraction(3 * d, 2) + Fraction(7, 3),
        Fraction(d * d, 6) - Fraction(d, 2) - Fraction(2, 3),
    )


def _check_t_star(d: int) -> Check:
    """Bracket no wider than tol, strictly inside the window, f changing sign across it.

    The sign test uses the scalar partial-fraction evaluator ``excess.f_eval``,
    which shares no code with the rational-function and Sturm path that
    produced the bracket.
    """

    def check(code: int | None, stdout: str) -> tuple[int, list[str]]:
        from coulomb_sharp.excess import f_eval

        if code != 0:
            return 1, [f"t-star d={d}: exit code {code}"]
        try:
            payload = json.loads(stdout)
            lower = Fraction(payload["bracket"]["lower"])
            upper = Fraction(payload["bracket"]["upper"])
        except (ValueError, KeyError, TypeError) as exc:
            return 1, [f"t-star d={d}: unreadable output ({exc})"]
        window_lo, window_hi = t_star_window(d)
        problems = []
        if payload.get("d") != d:
            problems.append(f"t-star d={d}: output is for d={payload.get('d')}")
        if not 0 < upper - lower <= Fraction(T_STAR_TOL):
            problems.append(f"t-star d={d}: bracket width {upper - lower} exceeds {T_STAR_TOL}")
        if not window_lo < lower < upper < window_hi:
            problems.append(f"t-star d={d}: bracket not strictly inside ({window_lo}, {window_hi})")
        if f_eval(d, lower) * f_eval(d, upper) >= 0:
            problems.append(f"t-star d={d}: f does not change sign across the bracket")
        return (1 if problems else 0), problems

    return check


def _lt_d3_properties(rows: list[list[str]]) -> list[str]:
    """Middle column meets the upper envelope at odd integer eta > 2, the lower at even."""
    seen = set()
    problems = []
    for eta, middle, lower, upper in rows:
        if "." in eta:
            continue
        e = int(eta)
        seen.add(e)
        if e % 2 == 1 and middle != upper:
            problems.append(f"lt-d3: eta={e} middle {middle} != upper envelope {upper}")
        if e % 2 == 0 and middle != lower:
            problems.append(f"lt-d3: eta={e} middle {middle} != lower envelope {lower}")
    if seen != set(range(3, 21)):
        problems.append(f"lt-d3: integer eta rows {sorted(seen)}, expected 3..20")
    return problems


def _rd_below_q(rows: list[list[str]]) -> list[str]:
    """The excess ratio R never exceeds its envelope Q (d = 5 and d = 6)."""
    bad = [row[0] for row in rows if Decimal(row[2]) > Decimal(row[1]) or Decimal(row[4]) > Decimal(row[3])]
    return [f"rd-vs-qd: R above Q at tau {bad[:5]}"] if bad else []


def _four_sign_changes(rows: list[list[str]]) -> list[str]:
    """f_6 changes sign exactly four times between neighbouring grid points."""
    num, den = FIGURE_STEP.split("/")
    step = Decimal(num) / Decimal(den)
    points = [(Decimal(t), Decimal(v)) for t, v in rows]
    changes = sum(
        1
        for (t0, v0), (t1, v1) in zip(points, points[1:])
        if t1 - t0 == step and (v0 > 0) != (v1 > 0)
    )
    return [] if changes == 4 else [f"f-plot: {changes} sign changes between grid neighbours, expected 4"]


FIGURE_PROPERTIES = {"lt-d3": _lt_d3_properties, "rd-vs-qd": _rd_below_q, "f-plot": _four_sign_changes}


def _check_figure(which: str, path: Path) -> Check:
    """Row count, sha256 against the seed, and the figure's documented property."""
    expected_rows, sha256 = FIGURE_REFERENCE[which]

    def check(code: int | None, stdout: str) -> tuple[int, list[str]]:
        if code != 0:
            return 1, [f"{which}: exit code {code}"]
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return 1, [f"{which}: no CSV written"]
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
        problems = []
        if len(rows) != expected_rows:
            problems.append(f"{which}: {len(rows)} rows, expected {expected_rows}")
        if hashlib.sha256(data).hexdigest() != sha256:
            problems.append(f"{which}: CSV sha256 differs from the reference")
        try:
            problems.extend(FIGURE_PROPERTIES[which](rows))
        except (ValueError, IndexError, ArithmeticError) as exc:
            problems.append(f"{which}: malformed CSV ({exc!r})")
        return (1 if problems else 0), problems

    return check


# -- workloads -------------------------------------------------------------------


def _verify_all(seed: int, rep: int, workdir: Path) -> list[Command]:
    report = workdir / "verify-all.jsonl"
    return [
        Command(
            ["verify", "--suite", "all", "--out", str(report)],
            VERIFY_ALL_RECORDS,
            _check_report(report, VERIFY_ALL_RECORDS, VERIFY_ALL_SHA256),
        )
    ]


def t_star_dimensions(seed: int, rep: int) -> tuple[int, ...]:
    """Each base dimension moved by at most 2; base-5 digit i of the seed picks
    the offset of dimension i and the repetition index rotates it, so seed 0,
    repetition 0 gives exactly 40, 60 and 80 and five repetitions cover all
    five offsets."""
    return tuple(
        base + T_STAR_OFFSETS[(seed // 5**i + rep) % len(T_STAR_OFFSETS)]
        for i, base in enumerate(T_STAR_DIMENSIONS)
    )


def _t_star_large_d(seed: int, rep: int, workdir: Path) -> list[Command]:
    return [
        Command(["constants", "--d", str(d), "--which", "t-star", "--tol", T_STAR_TOL], 1, _check_t_star(d))
        for d in t_star_dimensions(seed, rep)
    ]


def _figures_fine(seed: int, rep: int, workdir: Path) -> list[Command]:
    commands = []
    for which in FIGURE_REFERENCE:
        path = workdir / f"{which}.csv"
        argv = ["figure", "--which", which, "--step", FIGURE_STEP, "--out", str(path)]
        commands.append(Command(argv, 1, _check_figure(which, path)))
    return commands


def lt_grid_start(seed: int, rep: int) -> Fraction:
    """Seeded grid start; the point count does not depend on it."""
    return LT_START + Fraction((seed + rep) % LT_SHIFTS, LT_SHIFTS)


def _lt_sweep_gamma(seed: int, rep: int, workdir: Path) -> list[Command]:
    start = lt_grid_start(seed, rep)
    config = workdir / "lt-sweep.json"
    config.write_text(
        json.dumps(
            {
                "gamma": LT_GAMMA,
                "d_values": LT_D_VALUES,
                "eta_grid": {"start": str(start), "stop": str(start + LT_SPAN), "step": str(LT_STEP)},
            }
        ),
        encoding="utf-8",
    )
    report = workdir / "lt-sweep-gamma.jsonl"
    expected = len(LT_D_VALUES) * LT_GRID_POINTS + D3_ENVELOPE_RECORDS
    argv = ["verify", "--suite", "d3-envelopes", "--config", str(config), "--out", str(report)]
    return [Command(argv, expected, _check_report(report, expected, None))]


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[int, int, Path], list[Command]]] = {
    "verify-all": _verify_all,
    "t-star-large-d": _t_star_large_d,
    "figures-fine": _figures_fine,
    "lt-sweep-gamma": _lt_sweep_gamma,
}
