"""End-to-end CLI behaviour: output shapes, exit codes, byte stability.

Every command here runs through ``main``, which refuses each import of mpmath
for the length of the call, so every pinned output below is also the output
without mpmath installed.  This file holds the only copy of each pin.
"""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from coulomb_sharp import cli, excess, highprec, optima, phase_space, spectrum, verification
from coulomb_sharp.cli import render_decimal, render_grid_column, render_ratio
from coulomb_sharp.exact import CertificationError, MathematicalError
from coulomb_sharp.highprec import PrecisionError

ROOT = Path(__file__).resolve().parents[1]

# The pins bench/workloads.py keeps its own copy of, so that its oracles import
# nothing from the tests; test_benchmark_oracles_are_these_pins holds the copies equal.
VERIFY_ALL = (5261, "393870d5a69c303ffbd2eded5dd959ca72b85ba20e92bf4eb9ce85614a204d86")  # records, sha256
D3_ENVELOPE_RECORDS = 1880
FIGURE_FINE_STEP = "1/1000"
FIGURES_FINE = {  # figure -> (data rows, CSV sha256) at FIGURE_FINE_STEP
    "lt-d3": (18000, "04c8b08a3017e63bdba9a98ac22afa4141891b9a94c3653e9bf3cffbb54e1880"),
    "rd-vs-qd": (8000, "4a92fc2bf8db4dc36d69bc1f224595ddb25bb3a7768a19d55e4720cde68a9acb"),
    "f-plot": (8895, "434033ea4b390b9a7c0731f4a6b848965525498d28c1f722cf22cce78aee8ad9"),
}


def main(argv):
    """cli.main with mpmath blocked for the length of the call.

    sys.modules["mpmath"] = None makes every import of mpmath raise
    ImportError, as if it were not installed.  Only that key is restored
    afterwards: modules first imported during the call stay loaded.
    """
    absent = "mpmath" not in sys.modules
    saved = sys.modules.get("mpmath")
    sys.modules["mpmath"] = None
    try:
        return cli.main(argv)
    finally:
        if absent:
            del sys.modules["mpmath"]
        else:
            sys.modules["mpmath"] = saved


def count_calls(monkeypatch, targets):
    """Wrap each (module, name) of targets so that it counts its calls; returns the live counts by target."""
    counts = dict.fromkeys(targets, 0)
    for module, name in targets:

        def counting(*args, key=(module, name), original=getattr(module, name)):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


def src_env():
    """The environment for a subprocess, with this checkout's src first on PYTHONPATH."""
    src = str(ROOT / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_benchmark_oracles_are_these_pins(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses looks its module up there
    spec.loader.exec_module(workloads)
    assert (workloads.VERIFY_ALL_RECORDS, workloads.VERIFY_ALL_SHA256) == VERIFY_ALL
    assert workloads.D3_ENVELOPE_RECORDS == D3_ENVELOPE_RECORDS
    assert workloads.FIGURE_STEP == FIGURE_FINE_STEP
    assert workloads.FIGURE_REFERENCE == FIGURES_FINE


class TestRendering:
    def test_render_decimal_significant_digits(self):
        assert render_decimal(Fraction(1, 3)).startswith("0.333333333333333")
        assert render_decimal(Fraction(0)) == "0"

    def test_exact_decimal(self):
        # Finite decimals are written out in full; any other point is rounded.
        assert render_grid_column([201, -550, 700, 100], 100) == ["2.01", "-5.5", "7", "1"]
        assert render_grid_column([-11], 2) == ["-5.5"]
        assert render_grid_column([1, 21], 3) == [render_ratio(1, 3), "7"]

    def test_decimal_eta_roundtrips_to_fraction(self, capsys):
        assert main(["spectrum", "--d", "6", "--eta", "11.1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eta"] == "111/10"


class TestRationalArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--d", "3", "--eta", "1e10000000"],
            ["spectrum", "--d", "3", "--eta", "1e1001"],
            ["constants", "--d", "5", "--which", "t-star", "--tol", "1e-1001"],
            ["figure", "--which", "f-plot", "--step", "1e-1001", "--out", "OUT"],
        ],
        ids=("eta-1e10000000", "eta-1e1001", "tol-1e-1001", "step-1e-1001"),
    )
    def test_decimal_exponent_beyond_limit_usage_error(self, tmp_path, capsys, argv):
        # Refused before Fraction builds 10**exponent, which takes seconds for 1e10000000.
        argv = [str(tmp_path / "x.csv") if arg == "OUT" else arg for arg in argv]
        assert main(argv) == 2
        assert "usage error: decimal exponent" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestRationalGrid:
    def test_matches_repeated_addition(self):
        rng = random.Random(6)
        for _ in range(500):
            start = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
            step = Fraction(rng.randint(1, 90), rng.randint(1, 60))
            stop = start + Fraction(rng.randint(-200, 900), rng.randint(1, 40))
            expected, x = [], start
            while x <= stop:
                expected.append(x)
                x += step
            numerators, den = cli.grid_numerators(start, stop, step)
            assert [Fraction(n, den) for n in numerators] == expected

    def test_point_limit(self):
        limit = cli.MAX_GRID_POINTS
        numerators, _ = cli.grid_numerators(Fraction(1), Fraction(limit), Fraction(1))
        assert len(numerators) == limit
        with pytest.raises(ValueError, match=f"more than {limit} points"):
            cli.grid_numerators(Fraction(0), Fraction(limit), Fraction(1))


class TestSpectrumCommand:
    def test_counterexample_instance(self, capsys):
        assert main(["spectrum", "--d", "6", "--eta", "11.1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counting_function"] == "112"
        assert len(payload["levels"]) == 4
        assert payload["levels"][0]["multiplicity"] == "1"

    def test_empty_spectrum_text(self, capsys):
        assert main(["spectrum", "--d", "3", "--eta", "2"]) == 0
        out = capsys.readouterr().out
        assert "empty spectrum" in out
        assert "N = 0" in out

    def test_single_level_exact_value(self, capsys):
        assert main(["spectrum", "--d", "3", "--eta", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["levels"][0]["lambda_over_Lambda"] == "-5/4"

    def test_bad_eta_is_usage_error(self, capsys):
        assert main(["spectrum", "--d", "3", "--eta", "x"]) == 2

    def test_bad_dimension_is_usage_error(self, capsys):
        assert main(["spectrum", "--d", "2", "--eta", "5"]) == 2

    def test_missing_argument_is_usage_error(self, capsys):
        assert main(["spectrum", "--d", "3"]) == 2

    def test_dimension_above_limit_usage_error(self, capsys):
        assert main(["spectrum", "--d", str(cli.MAX_DIMENSION + 1), "--eta", "5"]) == 2
        assert "argument --d: d must be an integer from 3 to 400, got 401" in capsys.readouterr().err

    @pytest.mark.parametrize("eta", ["2002.1", "20000", "1e400"])
    def test_too_many_levels_rejected_before_work(self, capsys, monkeypatch, eta):
        def no_work(*args, **kwargs):
            raise AssertionError("levels were built")

        monkeypatch.setattr(spectrum, "levels", no_work)
        assert main(["spectrum", "--d", "3", "--eta", eta]) == 2
        assert "more than 1000 levels" in capsys.readouterr().err

    def test_level_limit_is_inclusive(self, capsys):
        assert main(["spectrum", "--d", "3", "--eta", "2002", "--format", "json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["levels"]) == cli.MAX_LEVELS


class TestConstantsCommand:
    def test_q_star_d3(self, capsys):
        assert main(["constants", "--d", "3", "--which", "q-star"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == "3"

    def test_a_star_d5(self, capsys):
        assert main(["constants", "--d", "5", "--which", "a-star"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value_squared"] == "16384/3375"
        assert Fraction(payload["value_squared"]) == Fraction(147456, 30375)
        assert payload["value"] is None

    @pytest.mark.parametrize("d", [3, 5, 7, 21, 51, 151, 299, 399])
    def test_odd_a_star_decimal_is_the_rounded_root(self, capsys, d):
        # sympy's 60-digit square root is the oracle: the printed decimal has
        # 15 significant digits and lies within half a unit of its last one.
        sympy = pytest.importorskip("sympy", exc_type=ImportError)  # sympy fails to import without mpmath
        assert main(["constants", "--d", str(d), "--which", "a-star"]) == 0
        payload = json.loads(capsys.readouterr().out)
        square = Fraction(payload["value_squared"])
        root = sympy.sqrt(sympy.Rational(square.numerator, square.denominator)).evalf(60)
        whole, _, places = payload["value_decimal"].partition(".")
        assert len(whole.lstrip("0") + places) == cli.DECIMAL_SIGNIFICANT_DIGITS
        error = sympy.Rational(payload["value_decimal"]) - root
        assert abs(error) < sympy.Rational(1, 2 * 10 ** len(places))

    def test_t_star_d6_within_window(self, capsys):
        assert main(["constants", "--d", "6", "--which", "t-star", "--tol", "1/1000000"]) == 0
        payload = json.loads(capsys.readouterr().out)
        lower = Fraction(payload["bracket"]["lower"])
        upper = Fraction(payload["bracket"]["upper"])
        assert Fraction(-2, 3) < lower < upper < Fraction(7, 3)
        assert upper - lower <= Fraction(1, 10**6)

    def test_t_star_d3_fails_with_explanation(self, capsys):
        # The rule is optima.locate_t_star's, reported by main as a mathematical failure.
        assert main(["constants", "--d", "3", "--which", "t-star"]) == 1
        captured = capsys.readouterr()
        assert "strictly decreasing" in captured.err
        assert captured.err.startswith("mathematical failure: t-star is undefined for d = 3")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("error", [MathematicalError, CertificationError, PrecisionError])
    def test_every_mathematical_failure_exits_one(self, capsys, monkeypatch, error):
        def fail(*args, **kwargs):
            raise error("no certified answer")

        monkeypatch.setattr(optima, "q_star", fail)
        assert main(["constants", "--d", "5", "--which", "q-star"]) == 1
        err = capsys.readouterr().err
        assert err == "mathematical failure: no certified answer\n"

    def test_bad_tolerance_usage_error(self, capsys):
        assert main(["constants", "--d", "6", "--which", "t-star", "--tol", "0"]) == 2

    @pytest.mark.parametrize("tol", ["1e-300", "1e-101"])
    def test_tolerance_below_floor_rejected_before_work(self, capsys, monkeypatch, tol):
        # Narrower brackets cost far more than their digits: 1e-300 did not finish in two minutes at d = 400.
        def no_work(*args, **kwargs):
            raise AssertionError("t* was located")

        monkeypatch.setattr(optima, "locate_t_star", no_work)
        assert main(["constants", "--d", "400", "--which", "t-star", "--tol", tol]) == 2
        assert capsys.readouterr().err == f"usage error: tolerance must be at least 1e-100, got {tol!r}\n"

    def test_tolerance_floor_is_inclusive(self, capsys, monkeypatch):
        widths, locate = [], optima.locate_t_star
        monkeypatch.setattr(
            optima, "locate_t_star", lambda d, tol: widths.append(tol) or locate(d, Fraction(1, 1000))
        )
        assert main(["constants", "--d", "6", "--which", "t-star", "--tol", "1e-100"]) == 0
        assert widths == [cli.MIN_T_STAR_TOL] == [Fraction(1, 10**100)]

    @pytest.mark.parametrize("which", ["t-star"])
    def test_zero_denominator_tolerance_usage_error(self, capsys, which):
        assert main(["constants", "--d", "5", "--which", which, "--tol", "1/0"]) == 2
        err = capsys.readouterr().err
        assert "usage error: zero denominator in '1/0'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("which", ["q-star", "a-star"])
    @pytest.mark.parametrize("tol", ["0", "1/0", "1e-1001"])
    def test_tolerance_is_read_by_t_star_only(self, capsys, which, tol):
        # The window maxima have no bracket width, so --tol leaves their output alone.
        assert main(["constants", "--d", "5", "--which", which]) == 0
        plain = capsys.readouterr().out
        assert main(["constants", "--d", "5", "--which", which, "--tol", tol]) == 0
        assert capsys.readouterr().out == plain

    @pytest.mark.parametrize("which, d", [("q-star", "494"), ("a-star", "401"), ("t-star", "100000")])
    def test_dimension_above_limit_rejected_before_work(self, capsys, monkeypatch, which, d):
        def no_work(*args, **kwargs):
            raise AssertionError("a constant was computed")

        for name in ("q_star", "a_star", "locate_t_star"):
            monkeypatch.setattr(optima, name, no_work)
        assert main(["constants", "--d", d, "--which", which]) == 2
        assert f"argument --d: d must be an integer from 3 to 400, got {d}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "d, sha256",
        [
            (40, "e5bea2cec1005bf91c05a139eee11517a1c9d1073a3e85f56418c3bac65f1eda"),
            (60, "3bf4dfc8d58908064e7f4cf410c8e4c71e6954099609dc501dbccbd7e929166d"),
            (80, "9dae7ef910f43b9e4800cc785955432bebb475b65e92c897c65b41d93aaab57e"),
            (150, "873ae5c78205f976f57840c221ed1882435daa9747ef840960f2896cc0243fb5"),
        ],
    )
    def test_t_star_bytes_pinned(self, capsys, d, sha256):
        # A faster root certifier must not move the bracket by one byte,
        # also past the dimensions its counts were first measured on.
        assert main(["constants", "--d", str(d), "--which", "t-star", "--tol", "1/1000000"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            (["--d", "200"], "7dea27a79669b547b73c0cbc1d38258cd2ab676910af71aed2fbc4ddb5220524"),
            (["--d", "400"], "a69825054fc56becc66874b84a0a8382bacf3eab2e7adb9ea101b16061ae1c1b"),
            (["--d", "40", "--tol", "1e-30"], "8f35f494cbb041d48dd9fd5bc8715d34f5b65e4bdbe2b2bd7a66e6cdf742b270"),
        ],
        ids=("d200", "d400", "d40-tol1e-30"),
    )
    def test_t_star_bytes_pinned_where_integers_decide(self, capsys, argv, sha256):
        # At d = 200 and 400 f's coefficients leave the double range, so sign_function
        # builds no filter, and at --tol 1e-30 the narrow midpoints leave most signs to
        # integer Horner: both paths keep every byte.
        assert main(["constants", *argv, "--which", "t-star"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "which, d, sha256",
        [
            ("q-star", 4, "81a3910edc5e24f077f40abe311041627b563762f2d4de3f8c5d06bf17ecb339"),
            ("q-star", 5, "2adf98638d3217c38ae1660b0b2f646840b1ab38e8cffb13b7fd017751bf97f3"),
            ("q-star", 6, "1a7ecd538a002ccc97e160d2af9208f9d12322f7edb933c0daa48a812b70671b"),
            ("q-star", 20, "75134505ae87696df91f0a2f977d6d91a05eef7e6ddec80fd4e36d4a0c1b81bb"),
            ("q-star", 21, "a7b50095e9a516bc56f4b5e9edb674bfd6929dca492d97806d311866c6aa2905"),
            ("q-star", 40, "c642a255d82f83a3244b122d19db0f6f3a4b797e8b313b161f1c1ab99bca7f7b"),
            ("q-star", 60, "51ecf113719ced1264a5b8705cc3ff78e9b3fbd3f247184323d4ee4dd7f85bdf"),
            ("q-star", 150, "a68d37ff0b714412463724feb25e551944fb16fdc402c5f65f7bf86a9f7ebead"),
            ("q-star", 200, "5bd8030d6f51c9224f47cdd1f6496a2ab5963fa473f36a489ac7b511d26d644d"),
            ("q-star", 299, "27a2dcd8b7bb4368b9dbb438d432a22e63f4117447c5a0f3eb9fda436915310f"),
            ("q-star", 400, "bc5ea8b2845140df2a499e6ac2c7708dcfbcdcbc23fe9d674bf97e9a41c6378f"),
            ("a-star", 4, "407612d8ba5d6698dad147ffeece635cc1c47527c8cee9a9a3ae336d68eeb514"),
            ("a-star", 5, "9b691c715c7a6c75bf0fb018481e858de58ab627ead8f0befff911fd4d8dfa55"),
            ("a-star", 6, "f38a97daa38d9e1c54dd9761cc3430bd43af4e61be592263b68fd633c952c5f6"),
            ("a-star", 20, "219fda7d4a5288fd6141dda118401622718d5640e2ca11494c24fcddfc19c3d3"),
            ("a-star", 21, "77ea064fb04cb93e0891839a71257fe86343b616fe50e4e33a944125aa27f45a"),
            ("a-star", 40, "f165409ad8467b17e235c9898ccae8325772864f1bff895b652d9c6ccae22c98"),
            ("a-star", 60, "13dd4681d633de9b76e514948d27435c97d0526deda6cc1520eaa7829abf5951"),
            ("a-star", 150, "88f3dc39a5febfd7718e28d1154cf531b21f225dc04036244980ade363569897"),
            ("a-star", 200, "fb556d172ddbca609ee587222a2d5a9173cec425754ea1cc03d482f72f2391b8"),
            ("a-star", 299, "7ba40b0acded770dddfc94a65bbb03202db8bea92a09807d522e3a3a38ee8220"),
            ("a-star", 400, "26b4e1ad6434d862077f9ab984f32c21a077a47d442085f2b639a08e2f4b75c0"),
        ],
    )
    def test_star_bytes_pinned(self, capsys, which, d, sha256):
        # One integer product path for Q, A**2 and the even-d root of A**2, and the
        # integer window walk up to the largest d that --d-range accepts: not one byte may move.
        assert main(["constants", "--d", str(d), "--which", which]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_star_bytes_pinned_on_every_dimension(self, capsys):
        # q-star then a-star for each d in 3..400, d ascending: every window walk
        # that --d-range accepts, in one hash.
        out = []
        for d in range(3, 401):
            for which in ("q-star", "a-star"):
                assert main(["constants", "--d", str(d), "--which", which]) == 0
                out.append(capsys.readouterr().out)
        digest = hashlib.sha256("".join(out).encode()).hexdigest()
        assert digest == "21ff9998eb3b001740b1579bdd18b6dbb5aa15128efd11219ee5fa8e98b9997b"


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "argv, calls",
        [
            (["--suite", "lt-gamma1"], 7),
            (["--suite", "d3-envelopes"], 1),
            (["--suite", "clr", "--d-range", "3..3", "--config", "sweep.json"], 3),
        ],
        ids=("lt-gamma1", "d3-envelopes", "order-1-sweep"),
    )
    def test_order1_grids_take_one_column_call_each(self, tmp_path, capsys, monkeypatch, argv, calls):
        # lt-gamma1 walks 400 etas at each d = 4..10, d3-envelopes 1,800 at d = 3
        # and the sweep 60 at each of d = 4, 5, 6; a call per point would count each.
        grid = {"start": "31/10", "stop": "9", "step": "1/10"}
        (tmp_path / "sweep.json").write_text(json.dumps({"d_values": [4, 5, 6], "eta_grid": grid}))
        monkeypatch.chdir(tmp_path)
        counts = count_calls(monkeypatch, [(spectrum, "riesz_means_order1_int")])
        assert main(["verify", *argv, "--out", "r.jsonl"]) == 0
        assert counts == {(spectrum, "riesz_means_order1_int"): calls}

    def test_d3_envelopes_suite(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "d3-envelopes", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == D3_ENVELOPE_RECORDS
        payload = json.loads(lines[0])
        assert list(payload) == ["check_id", "params", "verdict", "witness", "note"]

    def test_report_byte_stable(self, tmp_path, capsys):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        assert main(["verify", "--suite", "clr", "--d-range", "3..8", "--out", str(first)]) == 0
        assert main(["verify", "--suite", "clr", "--d-range", "3..8", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "suite, records, sha256",
        [
            ("identities", 326, "404fd78cb068d2690a66504d4941fce7cdd01d76322cc2792af8a8fb8f06370c"),
            ("clr", 123, "8dfe589bc770973b79ffc2bbbcc1914944a07c5cfb40469f001c8b2f32e5f61d"),
            ("coefficients", 112, "9855d2bd13cb24567cf7ea388902254a87cf037e9760f562028f7d77d8c62b9c"),
            ("asymptotics", 1, "67a3b33174ecd145372d02846a863e084b39cfc7a9970d8c97d2bf41e493e799"),
            ("lt-gamma1", 2819, "986b2184edd5359d0e207f0538c228b9077e218664b9ab63293e1a134e55ca47"),
            ("d3-envelopes", D3_ENVELOPE_RECORDS, "81af85dee8668b480aa3cf3ba58756868e24e0c97febc91c47ee7c7a01be52a8"),
            ("all", *VERIFY_ALL),
        ],
        ids=("identities", "clr", "coefficients", "asymptotics", "lt-gamma1", "d3-envelopes", "all"),
    )
    def test_report_bytes_pinned(self, tmp_path, capsys, suite, records, sha256):
        # Refactors must not move a verdict or a witness byte.
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", suite, "--out", str(out)]) == 0
        report = out.read_bytes()
        assert report.count(b"\n") == records
        assert hashlib.sha256(report).hexdigest() == sha256

    def test_coefficients_beyond_default_range_bytes_pinned(self, tmp_path, capsys):
        # d = 61..100 leaves only coefficients-f, with numerator coefficients
        # larger than any the default range (d <= 60) builds.
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "coefficients", "--d-range", "61..100", "--out", str(out)]) == 0
        report = out.read_bytes()
        assert report.count(b"\n") == 40
        assert report.count(b'"check_id":"coefficients-f"') == 40
        assert hashlib.sha256(report).hexdigest() == "0e21325bea063d6d21a9953542dd8f85c28802d353147afb1e40b16eb7d7d62c"

    def test_identities_every_dimension_bytes_pinned(self, tmp_path, capsys):
        # d = 3..400 runs the zero certificate at every odd d from 5 to 399 and
        # the Abel bound's order-1 sums for d = 4..400.
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "identities", "--d-range", "3..400", "--out", str(out)]) == 0
        report = out.read_bytes()
        assert report.count(b"\n") == 3430
        assert hashlib.sha256(report).hexdigest() == "5a94d39cffd94706606719f95088d493a7399119146ef47db7742f45f59713f5"

    @pytest.mark.parametrize(
        "d_range, records, sha256",
        [
            ("3..9", 4628, "5f1ddd688eb4976ddfb0771da475967346a214f73ac0449a42e0dbfc810757a2"),
            ("5..6", 2946, "0e234c5f2af4babdcd3582319ca785045a4ba99088546e4e24c98e0baa99a27c"),
            ("10..12", 3360, "22aab38ab723866ea1a0385774e7961a020815924148a212270fa94328bdd506"),
        ],
    )
    def test_all_suites_d_range_bytes_pinned(self, tmp_path, capsys, d_range, records, sha256):
        # Each check family meets --d-range with its own dimensions; families on
        # fixed inputs run whatever the range.  Neither may move a byte.
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "all", "--d-range", d_range, "--out", str(out)]) == 0
        report = out.read_bytes()
        assert report.count(b"\n") == records
        assert hashlib.sha256(report).hexdigest() == sha256

    def test_fixed_input_families_ignore_the_d_range(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "d3-envelopes", "--d-range", "5..6", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == D3_ENVELOPE_RECORDS
        assert main(["verify", "--suite", "identities", "--d-range", "40..40", "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 226
        assert sum(record["params"].get("d") == "40" for record in records) == 6

    @pytest.mark.parametrize(
        "gamma, d_values, start, stop, step, records, sha256",
        [
            ("7/3", [5, 6], "12", "14", "1/8", 43, "577f4957c5af5ada4cf681bce99611ed826a34a5f1a1ce827c0da6b5c0dc85e5"),
            (
                "7/3",
                list(range(5, 11)),
                "12",
                "60",
                "1/2",
                591,
                "1ae5ffe2c77affac8c5e76adaf277552ba85400866e14de4916f261c34b146c5",
            ),
            (
                "7/3",
                list(range(5, 11)),
                "12",
                "60",
                "1/8",
                2319,
                "e0133a5a271158a3112c933971202b2fc45590376ca111d8b008acbb723a17ee",
            ),
            (
                "7/3",
                list(range(5, 11)),
                "163/13",
                "787/13",
                "1/8",
                2319,
                "47b109ebbe2636a395357772ad9e31e8c510a7adb87a33781866e15b23ee8ead",
            ),
            ("233/100", [5, 8], "12", "25/2", "1/8", 19, "fd08a133a57e10c96aeab9bece7057843028c4ad6ef90642a57c7d693fb7bccd"),
            ("1", [3, 4, 9, 20], "12", "20", "1/8", 269, "9020bbdb8762de59414bd480545909d5a292204be434a9bf3068851d5885673e"),
        ],
        ids=(
            "order-7/3",
            "order-7/3-sweep-shape",
            "order-7/3-benchmark-grid",
            "order-7/3-benchmark-grid-from-12+7/13",
            "order-233/100",
            "order-1",
        ),
    )
    def test_config_sweep_bytes_pinned(self, tmp_path, capsys, gamma, d_values, start, stop, step, records, sha256):
        # Order 7/3 encloses the Riesz mean by integer roots, order 233/100 by
        # integer log and exp; order 1 runs check_lt_gamma1_grid on integer pairs (d = 3
        # skipped, d = 20 with empty spectra and a right-hand side clamped to
        # 0).  The second order-7/3 sweep has the lt-sweep-gamma benchmark's
        # shape (d = 5..10, eta = 12..60) at a coarser step; the next two are
        # the benchmark's own grids (step 1/8, 385 values of eta from 12 and
        # from 12 + 7/13), whose dimensions share root rows.  Every report must
        # keep every verdict and witness byte.
        config = tmp_path / "sweep.json"
        grid = {"start": start, "stop": stop, "step": step}
        config.write_text(json.dumps({"gamma": gamma, "d_values": d_values, "eta_grid": grid}))
        out = tmp_path / "report.jsonl"
        argv = ["verify", "--suite", "clr", "--d-range", "3..3", "--config", str(config), "--out", str(out)]
        assert main(argv) == 0
        report = out.read_bytes()
        assert report.count(b"\n") == records
        assert hashlib.sha256(report).hexdigest() == sha256

    def test_odd_d_asymptotic_gap_keeps_its_digits_at_low_precision(self, tmp_path, capsys):
        # At odd d the A residual is the gap d^3 (A - Q), an exact numerator
        # over A + Q with A from one integer square root: no cancellation
        # costs it digits.
        for d, residual in ((11, 9.807481098616028), (51, 5.241324182109934)):
            out = tmp_path / f"report-{d}.jsonl"
            argv = ["verify", "--suite", "asymptotics", "--d-range", f"{d}..{d}"]
            assert main([*argv, "--out", str(out)]) == 0
            (record,) = [json.loads(line) for line in out.read_text().splitlines()]
            assert float(record["witness"]["max_residual_a"]) == residual, d

    def test_unknown_suite_usage_error(self, capsys):
        assert main(["verify", "--suite", "bogus"]) == 2

    def test_bad_d_range_usage_error(self, capsys):
        assert main(["verify", "--suite", "clr", "--d-range", "9"]) == 2

    @pytest.mark.parametrize("d_range", ["1..5", "2..9"])
    def test_d_range_below_three_rejected_before_work(self, tmp_path, capsys, monkeypatch, d_range):
        def no_work(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verification, "run_suite", no_work)
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "all", "--d-range", d_range, "--out", str(out)]) == 2
        assert f"each end of d-range must be an integer from 3 to 400, got {d_range[0]}" in capsys.readouterr().err
        assert not out.exists()

    def test_d_range_above_limit_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "clr", "--d-range", "3..401", "--out", str(out)]) == 2
        assert "each end of d-range must be an integer from 3 to 400, got 401" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    def test_clr_past_its_last_dimension_noted_on_stderr(self, tmp_path, capsys):
        # clr's per-d rows stop at d = 60, so 3..61 writes the report 3..60 writes;
        # only stderr says that the range reached past them.
        reports = {}
        for d_range in ("3..60", "3..61"):
            out = tmp_path / f"{d_range}.jsonl"
            assert main(["verify", "--suite", "clr", "--d-range", d_range, "--out", str(out)]) == 0
            reports[d_range] = (out.read_bytes(), capsys.readouterr())
        (below, quiet), (past, noted) = reports["3..60"], reports["3..61"]
        assert past == below
        assert quiet.err == ""
        assert noted.err == "note: the clr suite's per-d checks stop at d = 60, below --d-range 3..61\n"
        assert noted.out.replace("3..61", "3..60") == quiet.out

    @pytest.mark.parametrize(
        "argv, noted",
        [
            (["--suite", "all", "--d-range", "61..400"], True),
            (["--d-range", "3..61"], True),  # no --suite runs all
            (["--suite", "coefficients", "--d-range", "3..400"], False),
            (["--suite", "clr"], False),
        ],
        ids=("all", "default-suite", "other-suite", "no-d-range"),
    )
    def test_clr_note_only_when_clr_runs_past_its_rows(self, tmp_path, capsys, monkeypatch, argv, noted):
        record = verification.CheckRecord("stub", {}, "pass", {})
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: [record])
        assert main(["verify", *argv, "--out", str(tmp_path / "report.jsonl")]) == 0
        assert ("per-d checks stop at d = 60" in capsys.readouterr().err) == noted

    def test_failing_record_exits_one(self, tmp_path, capsys, monkeypatch):
        def broken_suite(d_range=None):
            return [
                verification.CheckRecord(
                    check_id="demo", params={}, verdict="fail", witness={"lhs": "2", "rhs": "1"}
                )
            ]

        monkeypatch.setitem(verification.SUITES, "clr", broken_suite)
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "clr", "--out", str(out)]) == 1
        assert "FAILED demo" in capsys.readouterr().err

    @pytest.mark.parametrize("gamma", ["7/3", "233/100"])
    def test_inconclusive_record_exits_one(self, tmp_path, capsys, monkeypatch, gamma):
        # A right-hand side equal to the left-hand side's enclosure is a tie.
        def riesz_mean_enclosure(d, n, den, gamma, bits):
            return spectrum.riesz_means_int((d,), n, den, gamma, bits)[0]

        monkeypatch.setattr(phase_space, "lt_rhs_int", riesz_mean_enclosure)
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: [])
        config = tmp_path / "sweep.json"
        config.write_text(
            json.dumps({"d_values": [8], "eta_grid": {"start": "12", "stop": "97/8", "step": "1/8"}, "gamma": gamma})
        )
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "2 checks: 2 inconclusive" in captured.out
        assert "FAILED lt-general-gamma" in captured.err
        verdicts = [json.loads(line)["verdict"] for line in out.read_text().splitlines()]
        assert verdicts == ["inconclusive", "inconclusive"]

    def test_config_driven_sweep(self, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        out = tmp_path / "from_config.jsonl"
        config.write_text(
            json.dumps(
                {
                    "d_values": [4, 5],
                    "eta_grid": {"start": "3.1", "stop": "3.5", "step": "1/10"},
                    "gamma": "1",
                    "suites": ["clr"],
                    "output_path": str(out),
                }
            )
        )
        assert main(["verify", "--config", str(config), "--d-range", "3..6"]) == 0
        lines = out.read_text().splitlines()
        ids = {json.loads(line)["check_id"] for line in lines}
        assert "lt-gamma1" in ids  # the custom grid sweep ran
        assert "q-star-exceeds-one" in ids  # the configured suite ran

    def test_invalid_config_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"eta_grid": {"start": "5", "stop": "4", "step": "1/10"}}))
        assert main(["verify", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([4, 5], "JSON object"),
            ({"d_values": ["x"], "eta_grid": {"start": "3.1", "stop": "3.5", "step": "1/10"}}, "d_values"),
        ],
        ids=("top-level-list", "non-integer-d"),
    )
    def test_malformed_config_rejected_before_work(self, tmp_path, capsys, monkeypatch, payload, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr(verification, "run_suite", no_work)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(payload))
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_config_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        config = tmp_path / "nested.json"
        config.write_text("[" * 5000)  # written directly: json.dumps would itself recurse
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "the config nests too deeply to parse" in err
        assert "Traceback" not in err
        assert ran == []
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, message",
        [
            ({"eta_grid": [1, 2, 3]}, "eta_grid must be an object"),
            ({"eta_grid": {"start": "3", "stop": "4"}}, "eta_grid must be an object"),
            ({"eta_grid": {"start": "3", "stop": "4", "step": "1/0"}}, "eta_grid.step"),
            ({"suites": "clr"}, "suites must be a list"),
            ({"precision": "x"}, "unknown config field 'precision'"),
            ({"precision": True}, "unknown config field 'precision'"),
            ({"precision": 0}, "unknown config field 'precision'"),
            ({"output_path": 7}, "output_path must be a string"),
            ({"d_values": [4, 2]}, "each of d_values must be an integer from 3 to 400, got 2"),
            ({"gamma": "1/2"}, "gamma must be >= 1"),
            ({"gamma": "5/2", "d_values": [5, 8]}, "gamma must be below d/2"),
            ({"suites": []}, "suites must name at least one suite"),
            ({"suites": ["clr", "clr"]}, 'suites names a suite twice or "all" beside another'),
            ({"suites": ["clr", "all"]}, 'suites names a suite twice or "all" beside another'),
            ({"d_values": [5, 5]}, "d_values names a dimension twice"),
            (
                {"eta_grid": {"start": "3", "stop": "4", "step": "1/10", "extra": "1"}},
                "eta_grid must be an object with start, stop and step and no other key",
            ),
            ({"gama": "7/3"}, "unknown config field 'gama'"),
            ({"precision": 0, "gama": "7/3"}, "unknown config field 'gama', 'precision'\n"),
            ({"eta_grid": None, "gamma": "3/2"}, "eta_grid is missing"),
            ({"d_values": None}, "d_values is missing"),
            ({"precision": 1001}, "unknown config field 'precision'"),
            ({"d_values": [4, 401]}, "each of d_values must be an integer from 3 to 400, got 401"),
            ({"eta_grid": {"start": "3", "stop": "4", "step": "1/100000"}}, "more than 100000 points"),
            ({"eta_grid": {"start": "3", "stop": "4", "step": "1e-1001"}}, "decimal exponent -1001 is beyond"),
            (
                {"eta_grid": {"start": "-1", "stop": "2", "step": "1"}, "suites": ["lt-gamma1"]},
                "eta_grid.start must be positive",
            ),
            ({"eta_grid": {"start": "0", "stop": "2", "step": "1"}}, "eta_grid.start must be positive"),
            (
                {"d_values": [4], "eta_grid": {"start": "20001", "stop": "20002", "step": "2"}},
                "eta = '20001', which gives more than 1000 levels at d = 4",
            ),
            (
                {
                    "d_values": [4],
                    "eta_grid": {"start": "2" + "0" * 4000, "stop": "3" + "0" * 4000, "step": "1" + "0" * 4000},
                },
                "eta = '300000000000...0000000000000', which gives more than 1000 levels at d = 4",
            ),
            (
                {"d_values": [9, 4], "eta_grid": {"start": "2001", "stop": "2004.5", "step": "3"}},
                "eta = '2004', which gives more than 1000 levels at d = 4",
            ),
            (
                '{"d_values": [5, 6], "eta_grid": {"start": "3.1", "stop": "3.5", "step": "1/10"}, '
                '"suites": ["clr"], "gamma": "7/3", "gamma": "2"}',
                "the config gives the key 'gamma' twice",
            ),
            (
                '{"d_values": [4, 5], "eta_grid": {"start": "3.1", "stop": "3.5", "step": "1/2", "step": "1/4"}, '
                '"suites": ["clr"]}',
                "the config gives the key 'step' twice",
            ),
        ],
        ids=(
            "eta-grid-list",
            "eta-grid-missing-step",
            "eta-grid-zero-denominator",
            "suites-string",
            "precision-string",
            "precision-bool",
            "precision-zero",
            "output-path-number",
            "d-below-three",
            "gamma-below-one",
            "gamma-above-half-d",
            "suites-empty",
            "suites-repeated",
            "suites-all-beside-another",
            "d-values-repeated",
            "eta-grid-extra-key",
            "unknown-field",
            "unknown-fields",
            "sweep-without-eta-grid",
            "sweep-without-d-values",
            "precision-above-limit",
            "d-above-limit",
            "eta-grid-above-point-limit",
            "eta-grid-exponent-beyond-limit",
            "eta-grid-start-not-positive",
            "eta-grid-start-zero",
            "eta-grid-above-level-limit",
            "eta-grid-4001-digits-above-level-limit",
            "eta-grid-largest-point-above-level-limit",
            "gamma-repeated",
            "eta-grid-step-repeated",
        ),
    )
    def test_bad_config_field_rejected_before_work(self, tmp_path, capsys, monkeypatch, field, message):
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        for name in ("check_lt_gamma1_grid", "check_lt_general_gamma"):
            monkeypatch.setattr(verification, name, lambda *args, **kwargs: ran.append("sweep"))
        payload = {
            "d_values": [4, 5],
            "eta_grid": {"start": "3.1", "stop": "3.5", "step": "1/10"},
            "suites": ["clr"],
        }
        config = tmp_path / "bad.json"
        if isinstance(field, str):  # the whole config as JSON text: a repeated key has no dict form
            config.write_text(field)
        else:
            payload.update(field)
            config.write_text(json.dumps(payload))
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    def test_config_level_limit_is_inclusive(self, tmp_path):
        # At d = 4 the largest point 2003 has levels 0..999; the stop 2003.5
        # would have one more, and d = 9 alone fewer.
        config = tmp_path / "sweep.json"
        grid = {"start": "2000", "stop": "2003.5", "step": "3"}
        config.write_text(json.dumps({"d_values": [9, 4], "eta_grid": grid}))
        assert cli.SweepConfig.from_json_file(str(config)).eta_grid[1] == Fraction(4007, 2)

    def test_unknown_config_suite_named_once(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"suites": ["clr", "bogus"]}))
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "r.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.count("unknown suite") == 1
        assert "'bogus'" in err
        assert ran == []

    @pytest.mark.parametrize("via_config", [False, True], ids=("out-flag", "config-output-path"))
    def test_missing_output_directory_rejected_before_work(self, tmp_path, capsys, monkeypatch, via_config):
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        out = tmp_path / "missing" / "report.jsonl"
        if via_config:
            config = tmp_path / "sweep.json"
            config.write_text(json.dumps({"suites": ["clr"], "output_path": str(out)}))
            argv = ["verify", "--config", str(config)]
        else:
            argv = ["verify", "--suite", "clr", "--out", str(out)]
        assert main(argv) == 2
        assert "does not exist" in capsys.readouterr().err
        assert ran == []

    @pytest.mark.parametrize(
        "via_config, message",
        [(False, "output path is empty"), (True, "output_path is empty")],
        ids=("out-flag", "config-output-path"),
    )
    def test_empty_output_path_rejected_before_work(self, tmp_path, capsys, monkeypatch, via_config, message):
        # An empty path must not fall back to the default report name.
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        monkeypatch.chdir(tmp_path)
        if via_config:
            (tmp_path / "sweep.json").write_text(json.dumps({"suites": ["clr"], "output_path": ""}))
            argv = ["verify", "--config", "sweep.json"]
        else:
            argv = ["verify", "--suite", "clr", "--out", ""]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert ran == []
        assert sorted(path.name for path in tmp_path.iterdir()) == (["sweep.json"] if via_config else [])

    def test_directory_as_output_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        assert main(["verify", "--suite", "clr", "--out", str(tmp_path)]) == 2
        assert "is a directory" in capsys.readouterr().err
        assert ran == []

    def test_empty_record_set_fails_without_report(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "lt-gamma1", "--d-range", "3..3", "--out", str(out)]) == 1
        assert "no checks ran" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("precision", ["0", "-3", "x", "1001", "100000000"])
    def test_bad_precision_flag_rejected_before_work(self, tmp_path, capsys, monkeypatch, precision):
        # The strict check works its precision out itself; verify takes no such flag.
        ran = []
        monkeypatch.setattr(verification, "run_suite", lambda *args, **kwargs: ran.append("suite") or [])
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "clr", "--precision", precision, "--out", str(out)]) == 2
        assert f"unrecognized arguments: --precision {precision}" in capsys.readouterr().err
        assert ran == []
        assert not out.exists()

    def test_asymptotics_outside_its_range_runs_no_check(self, tmp_path, capsys):
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "asymptotics", "--d-range", "3..9", "--out", str(out)]) == 1
        assert "no checks ran" in capsys.readouterr().err
        assert not out.exists()

    def test_all_suites_below_asymptotics_range_write_report(self, tmp_path, capsys):
        # The asymptotics suite starts at d = 10; the other suites still report on 3..9.
        out = tmp_path / "report.jsonl"
        assert main(["verify", "--suite", "all", "--d-range", "3..9", "--out", str(out)]) == 0
        ids = [json.loads(line)["check_id"] for line in out.read_text().splitlines()]
        assert len(ids) == 4628
        assert "asymptotics" not in ids


class TestFigureCommand:
    @pytest.mark.parametrize(
        "which, calls",
        [
            ("lt-d3", {(spectrum, "riesz_means_order1_int"): 1, (spectrum, "d3_envelope_terms_ints"): 1}),
            ("rd-vs-qd", {(excess, "q_ints"): 2, (excess, "r_ints"): 2}),
            ("f-plot", {(excess, "f_ints"): 1}),
        ],
        ids=("lt-d3", "rd-vs-qd", "f-plot"),
    )
    def test_each_column_takes_one_kernel_call(self, tmp_path, capsys, monkeypatch, which, calls):
        # rd-vs-qd has one Q and one R column per d; a call per cell would count once per row.
        counts = count_calls(monkeypatch, list(calls))
        assert main(["figure", "--which", which, "--out", str(tmp_path / "x.csv")]) == 0
        assert counts == calls

    def test_lt_d3_touches_envelope_at_eta5(self, tmp_path, capsys):
        out = tmp_path / "lt.csv"
        assert main(["figure", "--which", "lt-d3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        header, data = rows[0], rows[1:]
        assert header[0].startswith("eta")
        at_five = next(r for r in data if r[0] == "5")
        assert at_five[1] == at_five[3]  # middle equals upper envelope exactly

    def test_lt_d3_containment_everywhere(self, tmp_path):
        out = tmp_path / "lt.csv"
        assert main(["figure", "--which", "lt-d3", "--out", str(out)]) == 0
        for row in out.read_text().splitlines()[1:]:
            _, middle, lower, upper = row.split(",")
            assert Fraction(lower) <= Fraction(middle) <= Fraction(upper)

    def test_rd_vs_qd_rows_bounded(self, tmp_path):
        out = tmp_path / "rd.csv"
        assert main(["figure", "--which", "rd-vs-qd", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 800
        for row in rows:
            _, q5, r5, q6, r6 = row.split(",")
            assert Fraction(r5) <= Fraction(q5)
            assert Fraction(r6) <= Fraction(q6)

    def test_f_plot_four_sign_changes(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["figure", "--which", "f-plot", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        ts = [Fraction(r[0]) for r in rows]
        values = [Fraction(r[1]) for r in rows]
        step = Fraction(1, 100)
        flips = 0
        for i in range(1, len(ts)):
            if ts[i] - ts[i - 1] == step and values[i - 1] != 0 and values[i] != 0:
                if (values[i - 1] > 0) != (values[i] > 0):
                    flips += 1
        assert flips == 4

    @pytest.mark.parametrize("step", ["1/100", "1/20", "1/40", "3/40", "1/60", "1/7", "7/13", "2/3", "1/1000"])
    def test_f_plot_keeps_exactly_the_points_off_the_poles(self, step):
        # Grid points at distance exactly 1/20 from a pole (steps 1/20, 1/40, 1/60) are dropped.
        step = Fraction(step)
        poles = [Fraction(-6, 2), Fraction(-5, 2)] + [Fraction(-k) for k in range(1, 6)]
        numerators, den = cli.grid_numerators(Fraction(-11, 2), Fraction(4), step)
        kept = [n for n in numerators if all(abs(Fraction(n, den) - p) > Fraction(1, 20) for p in poles)]
        assert [row[0] for row in cli.figure_f_plot(step)[1:]] == render_grid_column(kept, den)

    @pytest.mark.parametrize(
        "which, sha256",
        [
            ("lt-d3", "ba72d86dafe193204f8d6fa2d19493448d87ffb703b569f70e9a3584e01b014f"),
            ("rd-vs-qd", "f476af8333bb1a1ab2c9452f3437fc683ad552bc031ae3c47bfe6ee71bd2e4ec"),
            ("f-plot", "659eec3d7ce8f42ad5a5de36447a0f2121ca572c4c4f2b6175cd3a45c950ec11"),
        ],
    )
    def test_csv_bytes_pinned(self, tmp_path, capsys, which, sha256):
        # The default-step grids, every rendered digit and the line layout must not move.
        out = tmp_path / "figure.csv"
        assert main(["figure", "--which", which, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize(
        "which, step, rows, sha256",
        [(which, FIGURE_FINE_STEP, *pin) for which, pin in FIGURES_FINE.items()]
        + [
            ("lt-d3", "1/7", 126, "24fb783709bc4e7e56c7aa96107133a381b6704c1f7eef729aea3be9c57beeec"),
            ("rd-vs-qd", "1/7", 56, "8e22b89938c126e22412ddee6442018cf2390f66d24ba43f988402430a5d909d"),
            ("f-plot", "1/7", 66, "19b84ed85ea8445802b4e2f50433a30ae1063dbeaf4828bd507c616ccca46dd3"),
            ("lt-d3", "7/13", 33, "ff5ef831d09e613f826a8534b21283237c3857bf7957bfcd327da25d4adcfb66"),
            ("rd-vs-qd", "7/13", 14, "d91f5d0d481f8f931e2c2f3146c9f6ca3cd3d12c727c2b3faa0820e4bbb38559"),
            ("f-plot", "7/13", 17, "30ad5337331561c2e5cfef92695c34d53c11ae5c50cf947de61485c307b4000f"),
        ],
    )
    def test_csv_bytes_pinned_at_step(self, tmp_path, capsys, which, step, rows, sha256):
        # Steps whose common denominator is not reduced at every point (21/7 is 3) and the
        # benchmark's fine grid: every row and rendered digit must stay as pinned.
        out = tmp_path / "figure.csv"
        assert main(["figure", "--which", which, "--step", step, "--out", str(out)]) == 0
        data = out.read_bytes()
        assert data.count(b"\n") == rows + 1
        assert hashlib.sha256(data).hexdigest() == sha256

    @pytest.mark.parametrize("which", ["lt-d3", "rd-vs-qd"])
    def test_step_without_rows_usage_error(self, tmp_path, capsys, which):
        out = tmp_path / "x.csv"
        assert main(["figure", "--which", which, "--out", str(out), "--step", "100"]) == 2
        assert "no rows" in capsys.readouterr().err
        assert not out.exists()

    def test_csv_byte_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["figure", "--which", "f-plot", "--out", str(a)]) == 0
        assert main(["figure", "--which", "f-plot", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        out = tmp_path / "lt.csv"
        assert main(["figure", "--which", "rd-vs-qd", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_missing_output_directory_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setitem(cli.FIGURES, "f-plot", lambda step: built.append(step))
        out = tmp_path / "missing" / "f.csv"
        assert main(["figure", "--which", "f-plot", "--out", str(out)]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert built == []

    def test_empty_output_path_rejected_before_work(self, tmp_path, capsys, monkeypatch):
        # The directory of "" is taken as the parent of the working directory, so it needs its own rule.
        built = []
        monkeypatch.setitem(cli.FIGURES, "f-plot", lambda step: built.append(step))
        (tmp_path / "work").mkdir()
        monkeypatch.chdir(tmp_path / "work")
        assert main(["figure", "--which", "f-plot", "--out", ""]) == 2
        assert capsys.readouterr().err == "usage error: output path is empty\n"
        assert built == []
        assert [path.name for path in tmp_path.rglob("*")] == ["work"]

    def test_zero_denominator_step_usage_error(self, tmp_path, capsys):
        assert main(["figure", "--which", "f-plot", "--out", str(tmp_path / "x.csv"), "--step", "1/0"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which, evaluator",
        [
            ("lt-d3", (spectrum, "riesz_means_order1_int")),
            ("rd-vs-qd", (excess, "q_ints")),
            ("f-plot", (excess, "f_ints")),
        ],
        ids=("lt-d3", "rd-vs-qd", "f-plot"),
    )
    def test_too_many_grid_points_rejected_before_work(self, tmp_path, capsys, monkeypatch, which, evaluator):
        def no_work(*args, **kwargs):
            raise AssertionError("a grid point was evaluated")

        monkeypatch.setattr(*evaluator, no_work)
        out = tmp_path / "x.csv"
        # 1/20000 gives 160,001 to 360,000 points, small enough to build if the limit were missing.
        assert main(["figure", "--which", which, "--out", str(out), "--step", "1/20000"]) == 2
        assert "more than 100000 points" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_step_usage_error(self, tmp_path, capsys):
        assert main(["figure", "--which", "f-plot", "--out", str(tmp_path / "x.csv"), "--step", "-1"]) == 2


class TestWriteFailure:
    @pytest.mark.parametrize(
        "argv",
        [["figure", "--which", "f-plot"], ["verify", "--suite", "clr", "--d-range", "3..4"]],
        ids=("figure", "verify"),
    )
    def test_failed_replace_exits_two_and_leaves_no_temporary(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(cli.os, "replace", refuse)
        out = tmp_path / "out.txt"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"usage error: cannot replace {out}"]
        assert not out.exists()
        assert list(tmp_path.glob(".tmp-*.part")) == []


class TestInputRule:
    """Each input bound is one rule: a value is refused, in the same words, wherever it enters."""

    @pytest.mark.parametrize(
        "site, value",
        [(site, d) for site in ("--d", "--d-range", "d_values") for d in (2, 401)]
        + [(site, p) for site in ("--precision", "precision") for p in (0, 30, 1001)]
        + [("enclosure_bits", p) for p in (0, 1001)],
    )
    def test_out_of_range_refused_before_work(self, tmp_path, capsys, monkeypatch, site, value):
        if site == "enclosure_bits":
            with pytest.raises(ValueError, match=f"precision must be an integer from 1 to 1000 digits, got {value}$"):
                highprec.enclosure_bits(value)
            return

        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for module, name in ((verification, "run_suite"), (optima, "q_star"), (spectrum, "levels")):
            monkeypatch.setattr(module, name, no_work)
        config = tmp_path / "sweep.json"
        grid = {"start": "12", "stop": "13", "step": "1"}
        fields = {"d_values": [value], "eta_grid": grid} if site == "d_values" else {"precision": value}
        config.write_text(json.dumps(fields))
        out = tmp_path / "report.jsonl"
        argv = {
            "--d": ["constants", "--d", str(value), "--which", "q-star"],
            "--d-range": ["verify", "--suite", "clr", "--d-range", f"{value}..{value}", "--out", str(out)],
            "d_values": ["verify", "--config", str(config), "--out", str(out)],
            "--precision": ["verify", "--suite", "clr", "--precision", str(value), "--out", str(out)],
            "precision": ["verify", "--suite", "clr", "--config", str(config), "--out", str(out)],
        }[site]
        assert main(argv) == 2
        err = capsys.readouterr().err
        if site in ("--d", "--d-range", "d_values"):
            assert f"must be an integer from 3 to 400, got {value}\n" in err
        elif site == "--precision":
            # No precision is an input: the strict check escalates on its own.
            assert f"unrecognized arguments: --precision {value}\n" in err
        else:
            assert "unknown config field 'precision'\n" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestLongInput:
    """A long input cannot flood stderr: the package echoes an input as reprlib.repr does, and cuts argparse's own."""

    @pytest.mark.parametrize(
        "argv, config, name",
        [
            (["verify", "--config", "CONFIG", "--out", "OUT"], {"gamma": "1" + "0" * 4999}, "gamma"),
            (["verify", "--config", "CONFIG", "--out", "OUT"], {"gamma": "x" + "9" * 5000}, "gamma"),
            (["verify", "--config", "CONFIG", "--out", "OUT"], {"d_values": [10**4000]}, "d_values"),
            (["spectrum", "--d", "3", "--eta", "x" + "9" * 5000], None, "--eta"),
            (["spectrum", "--d", "3", "--eta", "1" + "0" * 4000], None, "eta = "),
            (["figure", "--which", "lt-d3", "--step", "1e1000", "--out", "OUT"], None, "step"),
            (["constants", "--d", "5", "--which", "t-star", "--tol", f"0.{'0' * 4000}1"], None, "tolerance"),
            (["verify", "--suite", "x" * 5000, "--out", "OUT"], None, "--suite"),
            (["constants", "--d", "5", "--which", "q" * 5000], None, "--which"),
            (
                ["verify", "--config", "CONFIG", "--out", "OUT"],
                {
                    "d_values": [4],
                    "eta_grid": {"start": "2" + "0" * 4000, "stop": "3" + "0" * 4000, "step": "1" + "0" * 4000},
                },
                "eta_grid",
            ),
        ],
        ids=(
            "gamma-digits",
            "gamma-letter-digits",
            "d-values-digits",
            "eta-letter-digits",
            "eta-levels",
            "step-empty-grid",
            "tol-below-floor",
            "suite-choice",
            "which-choice",
            "eta-grid-levels",
        ),
    )
    def test_usage_error_stays_short(self, tmp_path, capsys, monkeypatch, argv, config, name):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for module, attr in ((verification, "run_suite"), (optima, "locate_t_star"), (spectrum, "levels")):
            monkeypatch.setattr(module, attr, no_work)
        out, config_path = tmp_path / "out.txt", tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = [{"OUT": str(out), "CONFIG": str(config_path)}.get(arg, arg) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and name in err
        assert len(err) <= 300
        assert not out.exists()


COMMAND_CALLS = {  # one valid call per command; OUT is a path under tmp_path
    "spectrum": ["spectrum", "--d", "3", "--eta", "5"],
    "constants": ["constants", "--d", "3", "--which", "q-star"],
    "verify": ["verify", "--suite", "clr", "--d-range", "3..4", "--out", "OUT"],
    "figure": ["figure", "--which", "f-plot", "--step", "1/7", "--out", "OUT"],
}
PARSER_ROWS = {
    **COMMAND_CALLS,
    "top-help": ["-h"],
    "top-long-help": ["--help"],
    "spectrum-help": ["spectrum", "-h"],
    "constants-help": ["constants", "-h"],
    "verify-help": ["verify", "-h"],
    "figure-help": ["figure", "--help"],
    "abbreviated-help": ["spectrum", "--h"],
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "option-first": ["--d", "3"],
    "unknown-option-first": ["-x", "spectrum"],
    "missing-argument": ["spectrum", "--d", "3"],
    "bad-choice": ["constants", "--d", "3", "--which", "x-star"],
    "bad-format": ["spectrum", "--d", "3", "--eta", "5", "--format", "xml"],
    "d-above-limit": ["spectrum", "--d", "401", "--eta", "5"],
    "unrecognized": ["spectrum", "--d", "3", "--eta", "5", "--bogus", "x"],
    "unrecognized-positional": ["verify", "extra"],
    "abbreviated-suite": ["verify", "--suit", "clr", "--d-range", "3..4", "--out", "OUT"],
    "abbreviated-which": ["constants", "--d", "6", "--whi", "q-star"],
    "equals-form": ["constants", "--d=6", "--which", "q-star"],
    "repeated-option": ["constants", "--d", "5", "--d", "6", "--which", "a-star"],
    "double-dash-last": ["spectrum", "--d", "3", "--eta", "5", "--"],
    "double-dash-between": ["spectrum", "--d", "3", "--", "--eta", "5"],
    "negative-eta": ["spectrum", "--d", "3", "--eta", "-5"],
}


def parse_route(parse, argv, capsys):
    """(namespace, exit status, stdout, stderr) of one parse; the namespace is None where it exits."""
    try:
        namespace, code = parse(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    out, err = capsys.readouterr()
    return namespace, code, out, err


class TestParser:
    """main parses a named command with that command's parser alone, and anything else with the whole grammar."""

    @pytest.mark.parametrize("argv", PARSER_ROWS.values(), ids=PARSER_ROWS)
    def test_both_routes_parse_alike(self, tmp_path, capsys, argv):
        argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
        whole, code, out, err = parse_route(cli.build_parser().parse_args, argv, capsys)
        if whole is None:
            # Help, or a refusal: main's answer, through whichever parser it builds, is the whole grammar's.
            assert (main(argv), *capsys.readouterr()) == (code or 0, out, err)
            return
        assert vars(whole).pop("command") == argv[0]
        own, own_code, own_out, own_err = parse_route(cli.command_parser(argv[0]).parse_args, argv[1:], capsys)
        assert (own_code, own_out, own_err) == (None, "", "")
        assert vars(own) == vars(whole)

    @pytest.mark.parametrize("argv", COMMAND_CALLS.values(), ids=COMMAND_CALLS)
    def test_a_named_command_builds_one_parser(self, tmp_path, capsys, monkeypatch, argv):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        assert main([str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]) == 0
        assert built == [f"coulomb-sharp {argv[0]}"]

    def test_top_help_lists_every_command(self, capsys):
        assert main(["-h"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: coulomb-sharp ")
        for name, (help_line, _) in cli.COMMANDS.items():
            assert name in out and help_line in out


class TestProcess:
    """The console entry point as a process: cli.main's code reaches the exit status."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["verify", "--suite", "clr", "--d-range", "3..4", "--out", "OUT"], 0),
            (["constants", "--d", "3", "--which", "t-star"], 1),
            (["spectrum", "--d", "2", "--eta", "5"], 2),
        ],
        ids=("verify-passes", "t-star-at-d3", "d-below-three"),
    )
    def test_exit_status(self, tmp_path, argv, code):
        out = tmp_path / "report.jsonl"
        argv = [str(out) if arg == "OUT" else arg for arg in argv]
        command = [sys.executable, "-m", "coulomb_sharp.cli", *argv]
        run = subprocess.run(command, capture_output=True, text=True, env=src_env(), timeout=300)
        assert run.returncode == code, run.stderr
        assert "Traceback" not in run.stdout + run.stderr
        assert out.exists() == (code == 0)


class TestWithoutMpmath:
    """The package imports without mpmath, the CLI without introspection modules; main's block of mpmath can fail."""

    def test_cli_import_leaves_mpmath_unloaded(self):
        code = "import sys, coulomb_sharp.cli; print('mpmath' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300)
        assert run.stdout == "False\n", run.stderr

    def test_cli_import_loads_no_introspection_modules(self):
        # Every process pays for its imports before any work: dataclasses alone
        # would bring in inspect, ast, dis and tokenize.
        code = "import sys; before = set(sys.modules); import coulomb_sharp.cli; print(*set(sys.modules) - before)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=300)
        added = set(run.stdout.split())
        assert "coulomb_sharp.cli" in added, run.stderr
        assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize"}

    def test_block_fails_a_command_that_imports_mpmath(self, tmp_path, monkeypatch):
        # Plain cli.main needs mpmath installed to pass here.
        mpmath = pytest.importorskip("mpmath")
        render = cli.render_ratio

        def importing(num, den):
            import mpmath  # noqa: F401

            return render(num, den)

        monkeypatch.setattr(cli, "render_ratio", importing)
        argv = ["figure", "--which", "f-plot", "--step", "1/7", "--out", str(tmp_path / "f.csv")]
        with pytest.raises(ImportError):
            main(argv)
        assert sys.modules["mpmath"] is mpmath
        assert cli.main(argv) == 0

    @pytest.mark.parametrize(
        "handler, argv", [(f"cmd_{name}", argv) for name, argv in COMMAND_CALLS.items()], ids=COMMAND_CALLS
    )
    def test_block_reaches_every_command(self, tmp_path, capsys, monkeypatch, handler, argv):
        # Each command's argument adder binds its handler when main runs, so a patched one is the one called.
        mpmath = pytest.importorskip("mpmath")
        command = getattr(cli, handler)

        def importing(args):
            import mpmath  # noqa: F401

            return command(args)

        monkeypatch.setattr(cli, handler, importing)
        argv = [str(tmp_path / "out") if arg == "OUT" else arg for arg in argv]
        with pytest.raises(ImportError):
            main(argv)
        assert sys.modules["mpmath"] is mpmath
        assert cli.main(argv) == 0

    def test_block_leaves_an_absent_mpmath_absent(self, capsys, monkeypatch):
        monkeypatch.delitem(sys.modules, "mpmath", raising=False)
        assert main(["spectrum", "--d", "3", "--eta", "5"]) == 0
        assert "mpmath" not in sys.modules

    def test_block_keeps_modules_first_imported_during_the_call(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "first_imported_in_call.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.delitem(sys.modules, "first_imported_in_call", raising=False)
        command = cli.cmd_spectrum

        def importing(args):
            import first_imported_in_call  # noqa: F401

            return command(args)

        monkeypatch.setattr(cli, "cmd_spectrum", importing)
        assert main(["spectrum", "--d", "3", "--eta", "5"]) == 0
        assert "first_imported_in_call" in sys.modules

    def test_block_is_lifted_when_the_call_raises(self, monkeypatch):
        before = sys.modules.get("mpmath", "absent")

        def failing(args):
            assert sys.modules["mpmath"] is None
            raise RuntimeError("failing command")

        monkeypatch.setattr(cli, "cmd_spectrum", failing)
        with pytest.raises(RuntimeError, match="failing command"):
            main(["spectrum", "--d", "3", "--eta", "5"])
        assert sys.modules.get("mpmath", "absent") is before
