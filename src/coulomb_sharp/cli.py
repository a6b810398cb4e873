"""Command-line front door: single computations, verification sweeps, figure data.

Exit codes: 0 on success / all checks passing, 1 on a failing or inconclusive
check and on a mathematical failure (``exact.MathematicalError``: an
uncertified root, t* at d = 3), 2 on usage errors (input beyond the size
limits below included) and on a failed read or write.
Commands raise; only ``main`` maps an error to its exit code.  All eta inputs
are parsed as exact rationals (decimal strings become exact scaled integers),
so level counts never depend on binary floating point.  Reports are written
atomically and are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import reprlib
import sys
import tempfile
from dataclasses import dataclass, fields
from decimal import Context
from fractions import Fraction
from typing import Iterable, NoReturn, Sequence

from . import excess, optima, spectrum, verification
from .exact import MathematicalError, parse_rational
from .spectrum import MAX_DIMENSION, check_dimension

DECIMAL_SIGNIFICANT_DIGITS = 15

# Input size limits, each refused as a usage error before any work starts
# (with spectrum.MAX_DIMENSION).
MAX_LEVELS = 1000  # levels of one spectrum command or of any point of a config sweep
MAX_GRID_POINTS = 100_000  # points of one figure grid or config eta grid
# Narrowest t* bracket of constants --tol: the bisection's points lengthen as the
# bracket narrows, and this width takes 11 to 12.5 s at d = 400 (CPython 3.11, one
# Xeon core), where every sign is integer Horner.
MIN_T_STAR_TOL = Fraction(1, 10**100)
# Longest usage-error message; a longer one keeps its two ends.  The package
# shows an echoed input as reprlib.repr does, but argparse echoes its own in full.
MAX_USAGE_MESSAGE = 240


_DECIMAL_CONTEXT = Context(prec=DECIMAL_SIGNIFICANT_DIGITS)


def render_ratio(num: int, den: int) -> str:
    """num/den correctly rounded (half-even) to DECIMAL_SIGNIFICANT_DIGITS digits, fixed-point.

    The context converts the two ints exactly, and the quotient depends only
    on the value, so an unreduced pair renders exactly as its reduced form
    does.  The quotient x has exponent > 0 only when it was rounded to 15
    digits at adjusted() >= 15 (an exact quotient of ints keeps exponent
    <= 0), so for -6 <= adjusted() <= 14 str(x) is already plain notation
    and gives the bytes of format(x, "f"), the cheaper call of the two.
    """
    if num == 0:
        return "0"
    x = _DECIMAL_CONTEXT.divide(num, den)
    return str(x) if -6 <= x.adjusted() <= 14 else format(x, "f")


def render_decimal(x: Fraction) -> str:
    return render_ratio(x.numerator, x.denominator)


def _decimal_shift(den: int) -> int | None:
    """max(a, b) when den = 2^a 5^b, so that 10**max(a, b) / den is an integer; else None."""
    e2 = e5 = 0
    while den % 2 == 0:
        den //= 2
        e2 += 1
    while den % 5 == 0:
        den //= 5
        e5 += 1
    return max(e2, e5) if den == 1 else None


def _fixed_point(scaled: int, shift: int) -> str:
    """The decimal scaled * 10**-shift, written out in full."""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return ("-" if scaled < 0 else "") + (f"{digits[:-shift]}.{digits[-shift:]}" if shift else digits)


def render_sqrt(x: Fraction) -> str:
    """sqrt(x) for a rational x > 1 that is not a square, rounded to DECIMAL_SIGNIFICANT_DIGITS digits.

    With m places after the point, floor(sqrt(x) 10**(m+1)) is one exact
    isqrt and carries one spare digit; a spare digit of 5 or more rounds up.
    The root is irrational, so the digits after the spare one are never all
    zero and no tie is possible.
    """
    places = DECIMAL_SIGNIFICANT_DIGITS - len(str(math.isqrt(x.numerator // x.denominator)))
    scaled = math.isqrt(x.numerator * 100 ** (places + 1) // x.denominator)
    return _fixed_point((scaled + 5) // 10, places)


def render_grid_column(numerators: Iterable[int], den: int) -> list[str]:
    """Each grid point n/den written out in full when it is a finite decimal, else as render_ratio writes it.

    Finiteness depends on the reduced denominator den // gcd(n, den), a
    divisor of den, so each divisor is tested once per grid.  With step 1/7
    the point 21/7 is 3, a finite decimal.
    """
    shift_of = functools.cache(_decimal_shift)  # lives for this grid only
    cells = []
    for n in numerators:
        shift = shift_of(den // math.gcd(n, den))
        cells.append(render_ratio(n, den) if shift is None else _fixed_point(n * 10**shift // den, shift))
    return cells


# -- sweep configuration -----------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Optional JSON-config mirror for verify sweeps."""

    d_values: list[int] | None = None
    eta_grid: tuple[Fraction, Fraction, Fraction] | None = None
    gamma: Fraction | None = None
    suites: list[str] | None = None
    output_path: str | None = None

    @staticmethod
    def from_json_file(path: str) -> "SweepConfig":
        """Read and check every field; any bad field raises ValueError before work starts."""
        with open(path, encoding="utf-8") as handle:
            try:
                data = json.load(handle, object_pairs_hook=_object_without_repeats)
            except RecursionError:
                raise ValueError("the config nests too deeply to parse") from None
        if not isinstance(data, dict):
            raise ValueError("the config must be a JSON object")
        unknown = sorted(data.keys() - {field.name for field in fields(SweepConfig)})
        if unknown:
            raise ValueError(f"unknown config field {', '.join(map(repr, unknown))}")
        d_values = data.get("d_values")
        if d_values is not None:
            if type(d_values) is not list or not d_values:
                raise ValueError("d_values must be a non-empty list of integers")
            for d in d_values:
                check_dimension(d, "each of d_values")
            if len(set(d_values)) < len(d_values):
                raise ValueError("d_values names a dimension twice, so records would repeat")
        eta_grid = None
        if data.get("eta_grid") is not None:
            grid = data["eta_grid"]
            if not isinstance(grid, dict) or grid.keys() != {"start", "stop", "step"}:
                raise ValueError("eta_grid must be an object with start, stop and step and no other key")
            start, stop, step = (
                _rational(grid[key], f"eta_grid.{key}") for key in ("start", "stop", "step")
            )
            if step <= 0:
                raise ValueError("eta_grid.step must be positive")
            if start <= 0:
                raise ValueError("eta_grid.start must be positive")
            if not start < stop:
                raise ValueError("eta_grid needs start < stop")
            top = start + (_grid_points(start, stop, step) - 1) * step
            if d_values and spectrum.top_level(min(d_values), top.numerator, top.denominator) >= MAX_LEVELS:
                raise ValueError(
                    f"eta_grid reaches eta = {reprlib.repr(str(top))}, "
                    f"which gives more than {MAX_LEVELS} levels at d = {min(d_values)}"
                )
            eta_grid = (start, stop, step)
        gamma = None
        if data.get("gamma") is not None:
            gamma = _rational(data["gamma"], "gamma")
            if gamma < 1:
                raise ValueError("gamma must be >= 1")
            if d_values and gamma >= Fraction(min(d_values), 2):
                raise ValueError("gamma must be below d/2 for every d in d_values")
        if d_values is not None or eta_grid is not None or gamma is not None:
            for name, value in (("d_values", d_values), ("eta_grid", eta_grid)):
                if value is None:
                    raise ValueError(f"{name} is missing: the eta sweep needs both d_values and eta_grid")
        suites = data.get("suites")
        if suites is not None:
            if type(suites) is not list or any(type(name) is not str for name in suites):
                raise ValueError("suites must be a list of suite names")
            if not suites:
                raise ValueError("suites must name at least one suite")
            for name in suites:
                if name != "all" and name not in verification.SUITES:
                    raise ValueError(f"unknown suite {name!r}")
            if len(set(suites)) < len(suites) or ("all" in suites and len(suites) > 1):
                raise ValueError('suites names a suite twice or "all" beside another, so records would repeat')
        output_path = data.get("output_path")
        if output_path is not None and type(output_path) is not str:
            raise ValueError("output_path must be a string")
        if output_path == "":
            raise ValueError("output_path is empty")
        return SweepConfig(
            d_values=d_values,
            eta_grid=eta_grid,
            gamma=gamma,
            suites=suites,
            output_path=output_path,
        )


def _object_without_repeats(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object of the config as a dict; json.load alone would keep the last of a repeated key."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"the config gives the key {reprlib.repr(key)} twice")
        data[key] = value
    return data


def _rational(value: object, name: str) -> Fraction:
    """A flag's or config field's value as an exact rational; the error names the input."""
    try:
        return parse_rational(str(value))
    except ValueError as exc:
        raise ValueError(f"{exc} for {name}") from None


def _check_output_path(path: str) -> None:
    """Refuse, before any work, an output path whose file cannot be created."""
    if not path:
        raise ValueError("output path is empty")
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError(f"output path {path!r} is a directory")
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory!r} does not exist")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise ValueError(f"output directory {directory!r} is not writable")


def _grid_points(start: Fraction, stop: Fraction, step: Fraction) -> int:
    """Number of grid points; more than MAX_GRID_POINTS raises ValueError."""
    count = math.floor((stop - start) / step) + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"the grid has more than {MAX_GRID_POINTS} points")
    return count


def grid_numerators(start: Fraction, stop: Fraction, step: Fraction) -> tuple[range, int]:
    """The grid start + k*step <= stop as integer numerators over one common denominator.

    Returns (numerators, den); the numerators are a range, empty when start > stop.
    """
    den = start.denominator * step.denominator
    base, stride = start.numerator * step.denominator, step.numerator * start.denominator
    return range(base, base + _grid_points(start, stop, step) * stride, stride), den


# -- figure datasets -----------------------------------------------------------
#
# Each builder walks its grid as integer numerators n over one denominator D,
# takes every cell from the integer kernel of its quantity (riesz_mean_order1_int,
# d3_envelope_terms_int, q_int, r_int, f_int) as an unreduced pair and renders
# the pair with render_ratio, one Context.divide per cell.  A cell that takes
# few values along the grid (lt-d3's upper envelope) is rendered once per value,
# through a cache that lives for one figure.  The builders compute no formula of
# their own.  Each returns its CSV header followed by one tuple of cells per row.

Rows = list[tuple[str, ...]]


def figure_lt_d3(step: Fraction) -> Rows:
    """Trace minus the two leading envelope terms, with both correction bounds."""
    rows: Rows = [
        ("eta[Lambda=1]", "trace_excess[Lambda]", "lower_envelope[Lambda]", "upper_envelope[Lambda]")
    ]
    etas, den = grid_numerators(2 + step, Fraction(20), step)
    render_upper = functools.cache(render_ratio)  # (2 ceil(eta/2) - 1)/24: a few values per grid
    for n, eta in zip(etas, render_grid_column(etas, den)):
        trace_num, trace_den = spectrum.riesz_mean_order1_int(3, n, den)
        (lead_num, lead_den), lower, upper = spectrum.d3_envelope_terms_int(n, den)
        middle = render_ratio(trace_num * lead_den - trace_den * lead_num, trace_den * lead_den)
        rows.append((eta, middle, render_ratio(*lower), render_upper(*upper)))
    return rows


def figure_rd_vs_qd(step: Fraction) -> Rows:
    """Excess ratio R, sampled at eta = 2 tau + d - 1, against its upper function Q for d = 5 and d = 6."""
    rows: Rows = [("tau[Lambda=1]", "q_d5[ratio]", "r_d5[ratio]", "q_d6[ratio]", "r_d6[ratio]")]
    taus, den = grid_numerators(step, Fraction(8), step)
    for n, tau in zip(taus, render_grid_column(taus, den)):
        cells = [tau]
        for d in (5, 6):
            cells.append(render_ratio(*excess.q_int(d, n, den)))
            cells.append(render_ratio(*excess.r_int(d, 2 * n + (d - 1) * den, den)))
        rows.append(tuple(cells))
    return rows


def figure_f_plot(step: Fraction) -> Rows:
    """The log-derivative of Q for d = 6, with pole-adjacent windows removed."""
    d = 6
    rows: Rows = [("t[Lambda=1]", "f6[1/t]")]
    ts, den = grid_numerators(Fraction(-11, 2), Fraction(4), step)
    # |t - pn/pd| > 1/20 for every pole pn/pd, in integers: |20 (pd n - pn den)| > pd den.
    # Each pole cuts the grid numerators in [ceil((20 pn - pd) den / 20 pd), floor((20 pn + pd) den / 20 pd)].
    cut: set[int] = set()
    for root in {r for _, r in excess.f_terms(d)}:
        pn, pd = -root.numerator, root.denominator
        lo, hi = -((pd - 20 * pn) * den // (20 * pd)), (20 * pn + pd) * den // (20 * pd)
        cut.update(range(ts.start - (ts.start - lo) // ts.step * ts.step, hi + 1, ts.step))
    kept = [n for n in ts if n not in cut]
    rows += [(t, render_ratio(*excess.f_int(d, n, den))) for n, t in zip(kept, render_grid_column(kept, den))]
    return rows


FIGURES = {
    "lt-d3": figure_lt_d3,
    "rd-vs-qd": figure_rd_vs_qd,
    "f-plot": figure_f_plot,
}


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


# -- commands -------------------------------------------------------------------


def cmd_spectrum(args: argparse.Namespace) -> int:
    d, eta = args.d, _rational(args.eta, "--eta")
    ell = spectrum.top_level(d, eta.numerator, eta.denominator)
    if ell >= MAX_LEVELS:
        raise ValueError(f"eta = {reprlib.repr(args.eta)} gives more than {MAX_LEVELS} levels")
    level_rows = spectrum.levels(d, eta)
    count = spectrum.counting_function(d, eta)
    if args.format == "json":
        payload = {
            "d": d,
            "eta": str(eta),
            "tau": str((eta + 1 - d) / 2),
            "ell": ell if ell >= 0 else None,
            "levels": [
                {
                    "j": level.j,
                    "multiplicity": str(level.multiplicity),
                    "lambda_over_Lambda": str(level.lambda_over_Lambda),
                    "lambda_over_Lambda_decimal": render_decimal(level.lambda_over_Lambda),
                }
                for level in level_rows
            ],
            "counting_function": str(count),
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"shifted Coulomb spectrum: d = {d}, eta = {eta}")
    if not level_rows:
        print("empty spectrum (eta <= d - 1)")
    else:
        print(f"{'j':>4}  {'multiplicity':>16}  {'lambda/Lambda':>24}  decimal")
        for level in level_rows:
            print(
                f"{level.j:>4}  {level.multiplicity:>16}  "
                f"{str(level.lambda_over_Lambda):>24}  {render_decimal(level.lambda_over_Lambda)}"
            )
    print(f"counting function N = {count}")
    return 0


def _star_payload(which: str, result: optima.StarResult) -> dict:
    irrational = result.value is None  # A at odd d: only its square is rational
    return {
        "d": result.d,
        "which": which,
        "argmax_ell": result.argmax_ell,
        "candidate_window": list(result.candidate_window),
        "value": None if irrational else str(result.value),
        "value_decimal": render_sqrt(result.value_squared) if irrational else render_decimal(result.value),
        "value_squared": str(result.value_squared),
        "value_squared_decimal": render_decimal(result.value_squared),
        "tie_ell": result.tie_ell,
    }


def cmd_constants(args: argparse.Namespace) -> int:
    if args.which == "q-star":
        print(json.dumps(_star_payload("q-star", optima.q_star(args.d)), indent=2))
        return 0
    if args.which == "a-star":
        print(json.dumps(_star_payload("a-star", optima.a_star(args.d)), indent=2))
        return 0
    tol = _rational(args.tol, "--tol")
    if tol < MIN_T_STAR_TOL:
        raise ValueError(f"tolerance must be at least 1e-100, got {reprlib.repr(args.tol)}")
    bracket = optima.locate_t_star(args.d, tol)
    lo_bound, hi_bound = optima.t_star_bounds(args.d)
    payload = {
        "d": args.d,
        "which": "t-star",
        "bracket": {
            "lower": str(bracket.lower),
            "upper": str(bracket.upper),
            "lower_decimal": render_decimal(bracket.lower),
            "upper_decimal": render_decimal(bracket.upper),
            "width": str(bracket.width),
        },
        "window": {"lower": str(lo_bound), "upper": str(hi_bound)},
    }
    print(json.dumps(payload, indent=2))
    return 0


def _parse_d_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition("..")
    if not sep:
        raise ValueError("d-range must look like A..B")
    lo, hi = (check_dimension(_integer(end), "each end of d-range") for end in (lo_text, hi_text))
    if lo > hi:
        raise ValueError("d-range needs A <= B")
    return lo, hi


def cmd_verify(args: argparse.Namespace) -> int:
    config = SweepConfig.from_json_file(args.config) if args.config else SweepConfig()
    d_range = _parse_d_range(args.d_range) if args.d_range else None
    suites = [args.suite] if args.suite else (config.suites or ["all"])
    out_path = next(path for path in (args.out, config.output_path, "verification_report.jsonl") if path is not None)
    _check_output_path(out_path)
    clr_top = verification.last_dimension("clr")
    if d_range and d_range[1] > clr_top and {"clr", "all"} & set(suites):
        note = f"the clr suite's per-d checks stop at d = {clr_top}, below --d-range {d_range[0]}..{d_range[1]}"
        print(f"note: {note}", file=sys.stderr)
    records: list[verification.CheckRecord] = []
    for suite in suites:
        records.extend(verification.run_suite(suite, d_range=d_range))
    if config.d_values:
        numerators, den = grid_numerators(*config.eta_grid)
        etas = [Fraction(n, den) for n in numerators]
        records += verification.check_lt_sweep(config.d_values, etas, config.gamma or Fraction(1))
    if not records:
        print(f"no checks ran for suites {', '.join(suites)}; no report written", file=sys.stderr)
        return 1
    _atomic_write_text(out_path, verification.records_to_jsonl(records))
    total = len(records)
    failures = [r for r in records if not r.ok]
    by_verdict: dict[str, int] = {}
    for record in records:
        by_verdict[record.verdict] = by_verdict.get(record.verdict, 0) + 1
    summary = ", ".join(f"{count} {verdict}" for verdict, count in sorted(by_verdict.items()))
    print(f"{total} checks: {summary}")
    print(f"report written to {out_path}")
    if failures:
        for record in failures[:10]:
            print(f"FAILED {record.check_id} {record.params}", file=sys.stderr)
        return 1
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    step = _rational(args.step, "--step")
    if step <= 0:
        raise ValueError("step must be positive")
    _check_output_path(args.out)
    header, *rows = FIGURES[args.which](step)
    if not rows:
        raise ValueError(f"step {reprlib.repr(args.step)} leaves the {args.which} figure with no rows")
    _atomic_write_text(args.out, "".join(",".join(row) + "\n" for row in [header, *rows]))
    print(f"{args.which}: {len(rows)} rows written to {args.out}")
    return 0


# -- parser ----------------------------------------------------------------------


def _integer(text: str) -> int | str:
    """Decimal digits as an integer; any other text as it is, for the validator to refuse."""
    return int(text) if text.isdecimal() else text


def _dimension(text: str) -> int:
    """An argparse type: the text as an integer, accepted or refused by ``check_dimension``."""
    try:
        return check_dimension(_integer(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _usage_error(message: str) -> str:
    """The one usage-error line, its message cut in the middle beyond MAX_USAGE_MESSAGE characters."""
    if len(message) > MAX_USAGE_MESSAGE:
        half = MAX_USAGE_MESSAGE // 2
        message = f"{message[:half]}...{message[-half:]}"
    return f"usage error: {message}\n"


class _Parser(argparse.ArgumentParser):
    """argparse, with its own errors written as every other usage error (exit 2); subparsers inherit it."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, _usage_error(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="coulomb-sharp",
        description=(
            "Exact spectral quantities, sharp constants and machine verification "
            "for the shifted Coulomb Hamiltonian (all in units Lambda = 1)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="negative levels, multiplicities and the count")
    p_spec.add_argument("--d", type=_dimension, required=True, help=f"dimension, 3..{MAX_DIMENSION}")
    p_spec.add_argument("--eta", required=True, help="coupling ratio as P/Q or decimal text")
    p_spec.add_argument("--format", choices=("text", "json"), default="text")
    p_spec.set_defaults(func=cmd_spectrum)

    p_const = sub.add_parser("constants", help="sharp constants and maximizer brackets")
    p_const.add_argument("--d", type=_dimension, required=True, help=f"dimension, 3..{MAX_DIMENSION}")
    p_const.add_argument("--which", choices=("q-star", "a-star", "t-star"), required=True)
    p_const.add_argument("--tol", default="1/1000000", help="bracket width for t-star")
    p_const.set_defaults(func=cmd_constants)

    p_verify = sub.add_parser("verify", help="run verification suites, emit a JSONL report")
    p_verify.add_argument(
        "--suite",
        choices=tuple(verification.SUITES) + ("all",),
        help="suite to run (defaults to config suites or 'all')",
    )
    p_verify.add_argument("--d-range", help="dimension range A..B")
    p_verify.add_argument("--out", help="report path (JSON lines)")
    p_verify.add_argument("--config", help="JSON file mirroring the sweep configuration")
    p_verify.set_defaults(func=cmd_verify)

    p_fig = sub.add_parser("figure", help="emit figure data as CSV")
    p_fig.add_argument("--which", choices=tuple(FIGURES), required=True)
    p_fig.add_argument("--out", required=True, help="output CSV path")
    p_fig.add_argument("--step", default="1/100", help="grid step as an exact rational (default %(default)s)")
    p_fig.set_defaults(func=cmd_figure)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except MathematicalError as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(_usage_error(str(exc)))
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
