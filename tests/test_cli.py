"""Command line behavior: parsing, precedence, determinism, exit codes."""

import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from gausdisk import checks, experiments, hermite
from gausdisk.cli import main
from gausdisk.errors import MathInvariantError
from gausdisk.hermite import build_rule
from gausdisk.measures import DiscreteMeasure


DATA = os.path.join(os.path.dirname(__file__), "data")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRule:
    def test_k_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "rule", "--k", "3", "--precision", "128")
        assert code == 0 and err == ""
        rule = DiscreteMeasure.from_csv(io.StringIO(out))
        assert len(rule.atoms) == 3 and rule.bits == 128

    def test_a_picks_size(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--a", "6", "--precision", "96")
        assert code == 0
        assert len(DiscreteMeasure.from_csv(io.StringIO(out)).atoms) == 5

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rule.csv"
        code, out, _ = run_cli(
            capsys, "rule", "--k", "2", "--precision", "64", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert len(DiscreteMeasure.from_csv(io.StringIO(target.read_text())).atoms) == 2

    def test_tags_past_4300_digits_read_back(self, capsys):
        # k = 50 at 5888 bits: every tag is longer than str(int) allows.
        code, out, err = run_cli(capsys, "rule", "--a", "20")
        assert code == 0 and err == ""
        rule = DiscreteMeasure.from_csv(io.StringIO(out))
        assert rule.bits == 5888
        built = build_rule(50, 5888)
        assert [(x.raw, w.raw) for x, w in rule.atoms] == [
            (x.raw, w.raw) for x, w in built.atoms
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("rule", "--k", "513"),
            ("transform", "--measure", "rule:513", "--z", "1"),
            ("superflat", "--a", "100"),
        ],
    )
    def test_rule_size_above_maximum_rejected(self, capsys, monkeypatch, argv):
        def no_roots(k, bits):
            raise AssertionError(f"a k={k} rule was built")

        monkeypatch.setattr(hermite, "_polished_positive_roots", no_roots)
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "exceeds the maximum 512" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("rule", "--a", "2"),
            ("transform", "--measure", "rulefor:2", "--z", "1"),
            ("figure", "--grid", "3"),
        ],
    )
    def test_support_too_small_for_its_rule_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "cannot host" in err

    def test_full_precision_is_not_an_option(self, capsys):
        # The rule CSV always carries exact tags.
        code, out, err = run_cli(capsys, "rule", "--k", "2", "--full-precision")
        assert code == 2 and out == "" and "--full-precision" in err

    def test_requires_exactly_one_selector(self, capsys):
        code, _, err = run_cli(capsys, "rule")
        assert code == 2 and "exactly one" in err
        code, _, err = run_cli(capsys, "rule", "--k", "2", "--a", "5")
        assert code == 2


class TestTransform:
    def test_error_at_real_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--measure", "trunc:6", "--z", "0.5"
        )
        assert code == 0
        fields = out.split()
        assert fields[0] == "z" and fields[3] == "error"
        assert float(fields[4]) == pytest.approx(-1.93276e-8, rel=1e-4)
        assert float(fields[5]) == 0.0

    def test_complex_point_forms(self, capsys):
        code1, out1, _ = run_cli(capsys, "transform", "--z", "1,2", "--what", "laplace")
        code2, out2, _ = run_cli(capsys, "transform", "--z", "1 2", "--what", "laplace")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_negative_real_part_takes_the_equals_form(self, capsys):
        # "--z -2,0.25" reads as an unknown option; "--z=-2,0.25" does not.
        code1, out1, _ = run_cli(capsys, "transform", "--z=-2,0.25")
        code2, out2, _ = run_cli(capsys, "transform", "--z", "-2 0.25")
        assert code1 == code2 == 0
        assert out1 == out2 and out1.startswith("z -2.0 0.25 error ")

    def test_char_of_two_point_rule(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform",
            "--measure",
            "rule:2",
            "--t",
            "0.8",
            "--what",
            "char",
            "--precision",
            "128",
        )
        assert code == 0
        fields = out.split()
        assert fields[0] == "t"
        import math

        assert float(fields[4]) == pytest.approx(math.cos(0.8), rel=1e-12)

    def test_frequency_is_the_imaginary_axis_point(self, capsys):
        common = ("transform", "--measure", "trunc:4", "--precision", "512")
        for what in ("error", "laplace"):
            code, out, _ = run_cli(
                capsys, *common, "--what", what, "--t", "50", "--z", "0,50"
            )
            assert code == 0
            z_line, t_line = out.strip().split("\n")
            assert z_line.split()[:4] == ["z", "0.0", "50.0", what]
            assert t_line.split()[:4] == ["t", "50.0", "0.0", what]
            assert t_line.split()[4:] == z_line.split()[4:]

    def test_char_at_frequency_is_laplace_on_the_imaginary_axis(self, capsys):
        common = ("transform", "--measure", "trunc:4", "--precision", "512")
        _, char_out, _ = run_cli(capsys, *common, "--what", "char", "--t", "0.8")
        _, real_out, _ = run_cli(capsys, *common, "--what", "char", "--z", "0.8")
        _, lap_out, _ = run_cli(capsys, *common, "--what", "laplace", "--t", "0.8")
        assert char_out.split()[:3] == ["t", "0.8", "0.0"]
        assert char_out.split()[4:] == real_out.split()[4:] == lap_out.split()[4:]
        assert float(char_out.split()[4]) == pytest.approx(0.7262557030795555, rel=1e-15)

    def test_full_precision_past_4300_digits(self, capsys):
        code, out, err = run_cli(
            capsys,
            "transform",
            "--measure",
            "trunc:4",
            "--z",
            "1",
            "--precision",
            "4400",
            "--full-precision",
        )
        assert code == 0 and err == ""
        fields = out.split()
        assert fields[1:3] == ["1e0@4400", "0e0@4400"]
        assert len(fields[4]) > 4300

    def test_multiple_points_one_line_each(self, capsys):
        code, out, _ = run_cli(
            capsys, "transform", "--z", "0.5", "--z", "1", "--t", "2"
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 3

    def test_full_precision_prints_tags(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "transform",
            "--z",
            "0.5",
            "--what",
            "laplace",
            "--precision",
            "96",
            "--full-precision",
        )
        assert code == 0
        assert "@96" in out

    def test_needs_a_point(self, capsys):
        code, _, err = run_cli(capsys, "transform")
        assert code == 2 and "at least one" in err

    def test_unknown_measure(self, capsys):
        code, _, err = run_cli(capsys, "transform", "--measure", "nope:1", "--z", "1")
        assert code == 2 and "measure spec" in err

    def test_csv_measure_roundtrip(self, capsys, tmp_path):
        rule_path = tmp_path / "r.csv"
        run_cli(capsys, "rule", "--k", "4", "--precision", "128", "--out", str(rule_path))
        code, out_csv, _ = run_cli(
            capsys, "transform", "--measure", f"csv:{rule_path}", "--z", "1",
            "--what", "laplace",
        )
        code2, out_direct, _ = run_cli(
            capsys, "transform", "--measure", "rule:4", "--precision", "128",
            "--z", "1", "--what", "laplace",
        )
        assert code == code2 == 0
        assert out_csv == out_direct

    def test_csv_measure_at_a_raised_precision(self, capsys, tmp_path):
        # 128-bit masses sum to one only within 2^-112; at 256 bits the
        # file's atoms are kept as they are and checked at their own bits.
        rule_path = tmp_path / "r.csv"
        run_cli(capsys, "rule", "--k", "8", "--precision", "128", "--out", str(rule_path))
        errors = []
        for bits in ("128", "256"):
            code, out, err = run_cli(
                capsys, "transform", "--measure", f"csv:{rule_path}",
                "--precision", bits, "--z", "1",
            )
            assert code == 0 and err == ""
            errors.append(Fraction(out.split()[4]))
        assert abs(errors[1] - errors[0]) <= abs(errors[0]) / 2**90

    def test_csv_measure_at_a_lowered_precision(self, capsys, tmp_path):
        # Below the file's precision the atoms are rounded down to the request.
        rule_path = tmp_path / "r.csv"
        run_cli(capsys, "rule", "--k", "8", "--precision", "256", "--out", str(rule_path))
        errors = []
        for bits in ("256", "128"):
            code, out, err = run_cli(
                capsys, "transform", "--measure", f"csv:{rule_path}",
                "--precision", bits, "--z", "1",
            )
            assert code == 0 and err == ""
            errors.append(Fraction(out.split()[4]))
        assert errors[1] != errors[0]
        assert abs(errors[1] - errors[0]) <= abs(errors[0]) / 2**90

    @pytest.mark.parametrize("exponent", ["9" * 5000, "-9999999"])
    def test_csv_tag_with_absurd_exponent_is_config_error(self, capsys, tmp_path, exponent):
        path = tmp_path / "bad.csv"
        path.write_text(f"location,mass\n0e0@64,1e{exponent}@64\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "transform", "--measure", f"csv:{path}", "--z", "1"
        )
        assert code == 2 and out == ""
        assert "precision tag" in err

    @pytest.mark.parametrize("header", ["node,weight", "location,mass"])
    def test_csv_may_open_with_comment_lines(self, capsys, tmp_path, header):
        path = tmp_path / "m.csv"
        rows = "-1e0@96,5e-1@96\n1e0@96,5e-1@96\n"
        path.write_text(f"# note\n{header}\n\n# between\n{rows}", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "transform", "--measure", f"csv:{path}", "--z", "1", "--what", "laplace"
        )
        assert code == 0 and err == ""
        # Atoms at -1 and 1 with mass 1/2 each: L(1) = cosh(1).
        assert float(out.split()[4]) == pytest.approx(1.5430806348152437, rel=1e-15)

    @pytest.mark.parametrize(
        "argv", [("--z", "nan"), ("--z", "inf"), ("--t", "inf"), ("--z", "1,-inf"), ("--z", "1e400")]
    )
    def test_unusable_point_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "transform", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: transform: point ") and repr(argv[1]) in err

    def test_point_past_double_range_with_explicit_precision(self, capsys):
        code, out, err = run_cli(capsys, "transform", "--z", "1e400", "--precision", "96")
        assert code == 0 and err == ""
        assert out == "z 1.00000000000000000000000000000180641782e+400 0.0 error 0.0 0.0\n"

    def test_missing_csv_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "transform", "--measure", f"csv:{tmp_path}/nope.csv", "--z", "1"
        )
        assert code == 4 and "i/o error" in err


class TestSupdisk:
    def test_circle_known_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "supdisk",
            "--measure",
            "rulefor:4",
            "--r",
            "1",
            "--samples",
            "64",
        )
        assert code == 0
        values = dict(
            line.split(" ", 1) for line in out.strip().split("\n")
        )
        assert values["arc"] == "quarter"
        assert values["method"] == "real-axis"
        assert float(values["sup_lower_bound"]) == pytest.approx(
            1.0564063588e-1, rel=1e-9
        )

    def test_csv_rule_is_scanned_to_the_same_digits(self, capsys, tmp_path):
        rule_path = tmp_path / "r.csv"
        run_cli(capsys, "rule", "--k", "4", "--precision", "128", "--out", str(rule_path))
        common = ("--r", "1", "--samples", "32")
        code, out_csv, _ = run_cli(capsys, "supdisk", "--measure", f"csv:{rule_path}", *common)
        code2, out_rule, _ = run_cli(
            capsys, "supdisk", "--measure", "rule:4", "--precision", "128", *common
        )
        assert code == code2 == 0
        assert "method scan\n" in out_csv and "method real-axis\n" in out_rule
        assert out_csv.replace("method scan", "method real-axis") == out_rule

    def test_csv_rule_at_a_raised_precision(self, capsys, tmp_path):
        rule_path = tmp_path / "r.csv"
        run_cli(capsys, "rule", "--k", "8", "--precision", "128", "--out", str(rule_path))
        sups = []
        for bits in ("128", "256"):
            code, out, err = run_cli(
                capsys, "supdisk", "--measure", f"csv:{rule_path}", "--r", "1",
                "--precision", bits,
            )
            assert code == 0 and err == "" and f"bits {bits}\n" in out
            values = dict(line.split(" ", 1) for line in out.strip().split("\n"))
            sups.append(Fraction(values["sup_lower_bound"]))
        assert abs(sups[1] - sups[0]) <= sups[0] / 2**90

    def test_csv_rule_at_a_lowered_precision(self, capsys, tmp_path):
        rule_path = tmp_path / "r.csv"
        run_cli(capsys, "rule", "--k", "8", "--precision", "256", "--out", str(rule_path))
        sups = []
        for bits in ("256", "128"):
            code, out, err = run_cli(
                capsys, "supdisk", "--measure", f"csv:{rule_path}", "--r", "1",
                "--precision", bits,
            )
            assert code == 0 and err == "" and f"bits {bits}\n" in out
            values = dict(line.split(" ", 1) for line in out.strip().split("\n"))
            sups.append(Fraction(values["sup_lower_bound"]))
        assert abs(sups[1] - sups[0]) <= sups[0] / 2**90

    def test_line_scan_fields(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "supdisk",
            "--measure",
            "rule:2",
            "--r",
            "0",
            "--line",
            "--samples",
            "64",
            "--precision",
            "128",
        )
        assert code == 0
        values = dict(line.split(" ", 1) for line in out.strip().split("\n"))
        assert values["certified"] == "True"
        assert float(values["sup_lower_bound"]) == pytest.approx(1.00746490, rel=1e-8)

    def test_zero_circle_radius_rejected(self, capsys):
        code, _, err = run_cli(capsys, "supdisk", "--r", "0")
        assert code == 2

    def test_sup_at_the_rounding_floor_is_rejected(self, capsys):
        # At 96 bits |B(0.25)| of the 12-node rule reads 4.34e-30, under the
        # floor 2**(16 - 96) * exp(0.25**2/2) = 8.5e-25; at 256 bits it is 2.78e-30.
        code, out, err = run_cli(
            capsys, "supdisk", "--measure", "rule:12", "--r", "0.25", "--precision", "96"
        )
        assert code == 2 and out == ""
        assert err == (
            "error: supdisk: the circle sup at r=0.25 is rounding noise at 96 bits: "
            "it lies below 2**(16 - bits) * exp(r**2/2)\n"
        )

    def test_exact_zero_scan_is_printed(self, capsys):
        # The Gaussian's own error is exactly zero, and a scanned zero passes.
        code, out, _ = run_cli(capsys, "supdisk", "--measure", "gauss", "--r", "2")
        assert code == 0
        assert "method scan\n" in out and "sup_lower_bound 0.0\n" in out


class TestFigure:
    def test_small_grid_with_artifacts(self, capsys, tmp_path):
        csv_path = tmp_path / "fig.csv"
        svg_path = tmp_path / "fig.svg"
        manifest_path = tmp_path / "fig.json"
        code, out, _ = run_cli(
            capsys,
            "figure",
            "--grid",
            "4,5,6,7",
            "--samples",
            "32",
            "--csv",
            str(csv_path),
            "--svg",
            str(svg_path),
            "--manifest",
            str(manifest_path),
        )
        assert code == 0
        assert out.count("\n") >= 4
        assert "fit_trunc slope" in out
        assert "fit_c1" in out
        assert "tail_chain a 4.0" in out
        first = {p.read_bytes() for p in (csv_path, svg_path, manifest_path)}
        code2, out2, _ = run_cli(
            capsys,
            "figure",
            "--grid",
            "4,5,6,7",
            "--samples",
            "32",
            "--csv",
            str(csv_path),
            "--svg",
            str(svg_path),
            "--manifest",
            str(manifest_path),
        )
        assert code2 == 0 and out2 == out
        assert {p.read_bytes() for p in (csv_path, svg_path, manifest_path)} == first

    def test_range_grid_parsing(self, capsys):
        code, out, err = run_cli(
            capsys, "figure", "--grid", "4:5:0.5", "--samples", "16"
        )
        assert code == 0
        assert out.startswith("a 4.0 ")
        assert "a 4.5 " in out and "a 5.0 " in out
        # progress goes to stderr, one line per row
        assert err.splitlines() == [
            "a=4: k=2, bits=197",
            "a=4.5: k=3, bits=240",
            "a=5: k=4, bits=291",
        ]

    def test_grid_with_too_many_values_rejected(self, capsys):
        code, out, err = run_cli(capsys, "figure", "--grid", "4:64:1e-12")
        assert code == 2 and out == "" and "more than 10000 values" in err

    def test_every_grid_value_checked_before_any_row(self, capsys, monkeypatch):
        def no_rule(k, bits):
            raise AssertionError(f"a k={k} rule was built")

        monkeypatch.setattr(experiments, "build_rule", no_rule)
        code, out, err = run_cli(capsys, "figure", "--grid", "4:70:1")
        assert code == 2 and out == ""
        assert err == "error: support half-width a=65 is outside [1, 64]\n"

    def test_grid_past_the_transform_domain_rejected_before_any_row(self, capsys, monkeypatch):
        def no_rule(k, bits):
            raise AssertionError(f"a k={k} rule was built")

        monkeypatch.setattr(experiments, "build_rule", no_rule)
        code, out, err = run_cli(capsys, "figure", "--grid", "4,60", "--b", "5")
        assert code == 2 and out == ""
        assert err == "error: disk radius b=5 puts a + b past 64 at a=60\n"

    def test_unrenderable_artifact_leaves_no_file(self, capsys, tmp_path):
        # One row is too few to draw, and the SVG is rendered before its file opens.
        svg_path = tmp_path / "fig.svg"
        code, _, err = run_cli(
            capsys, "figure", "--grid", "4", "--samples", "16", "--svg", str(svg_path)
        )
        assert code == 2 and "need at least 2 rows" in err
        assert not svg_path.exists()

    def test_failed_figure_leaves_none_of_its_paths(self, capsys, tmp_path):
        # The CSV renders from one row; it must still not be written, nor --out.
        paths = {name: tmp_path / name for name in ("f.csv", "f.svg", "o.txt")}
        code, out, err = run_cli(
            capsys, "figure", "--grid", "4", "--csv", str(paths["f.csv"]),
            "--svg", str(paths["f.svg"]), "--out", str(paths["o.txt"]),
        )
        assert code == 2 and out == "" and "need at least 2 rows" in err
        assert [p.name for p in paths.values() if p.exists()] == []

    def test_error_rounding_to_zero_names_the_row(self, capsys):
        # |B(b)| > 0 for every b > 0, so a zero sup is rounding, not a value.
        code, out, err = run_cli(
            capsys, "figure", "--grid", "4,5,6,7", "--b", "1e-30", "--samples", "16"
        )
        assert code == 2 and out == ""
        assert err.endswith(
            "error: the truncation error at a=4, b=1e-30 rounds to zero at 184 bits\n"
        )

    @pytest.mark.parametrize(
        "argv,family,row",
        [
            (("--grid", "12,16,20", "--b", "1", "--precision", "256"), "truncation", "a=20, b=1"),
            (("--grid", "4,5,6,7", "--b", "1e-20", "--samples", "16"), "rule", "a=4, b=1e-20"),
        ],
        ids=["low-precision", "tiny-radius"],
    )
    def test_error_at_the_rounding_floor_names_the_row(self, capsys, argv, family, row):
        # Below 2**(16 - bits) * exp(b**2/2) the subtraction L(b) - exp(b**2/2)
        # has no correct digit left: at a=20 the errors read 1.55e-78 at 256
        # bits against true values of 1.4e-80 and 4.2e-94.
        code, out, err = run_cli(capsys, "figure", *argv)
        assert code == 2 and out == ""
        assert f"error: the {family} error at {row} is rounding noise" in err

    def test_bad_grid(self, capsys):
        code, _, err = run_cli(capsys, "figure", "--grid", "5:4:1", "--samples", "16")
        assert code == 2

    @pytest.mark.parametrize("fit", ["fit_truncation_rate", "fit_quadrature_rate", "fit_c1"])
    def test_programming_error_in_a_fit_propagates(self, capsys, monkeypatch, fit):
        # Only a ConfigError (too few rows, log of zero) reads "unavailable".
        def broken(table):
            raise TypeError("broken fit")

        monkeypatch.setattr(experiments, fit, broken)
        with pytest.raises(TypeError, match="broken fit"):
            main(["figure", "--grid", "4:6:1", "--samples", "16"])

    def test_explicit_precision_overrides_policy(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "figure",
            "--grid",
            "4",
            "--samples",
            "16",
            "--precision",
            "256",
        )
        assert code == 0
        assert "bits 256" in out


class TestSuperflat:
    def test_csv_with_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "superflat", "--a", "4", "--certify")
        assert code == 0
        assert "# a=4" in out
        assert "# certificate_passed True" in out
        assert "# boundary_deviation 4.07493" in out
        assert "# derivative 8 cauchy_bound" in out

    def test_width_validated(self, capsys):
        code, _, err = run_cli(capsys, "superflat", "--a", "3")
        assert code == 2

    @pytest.mark.parametrize("a", ["4", "6"])
    def test_certificate_output_is_golden(self, capsys, a):
        # Captured with --samples 64 from the release whose order scans each
        # evaluated the density on their own; the boundary_deviation_ceiling
        # line came later and is the only line added since.  The certificate
        # now evaluates at z = 2i and z = i alone and takes no --samples.
        with open(os.path.join(DATA, f"superflat_a{a}_certify_s64.txt"), encoding="utf-8") as fh:
            golden = fh.read()
        code, out, err = run_cli(capsys, "superflat", "--a", a, "--certify")
        assert code == 0 and err == ""
        assert out == golden

    def test_samples_is_not_an_option(self, capsys):
        code, out, err = run_cli(capsys, "superflat", "--a", "4", "--certify", "--samples", "64")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --samples 64" in err

    @pytest.mark.parametrize("bits", ["64", "128"])
    def test_eps2_rounding_noise_exits_2_and_writes_nothing(self, capsys, tmp_path, bits):
        # At a = 16, eps2 = 1.0548e-34 lies under 2**(16 - bits) * e**2; 128
        # bits used to print 1.054771e-34 with certificate_passed True.
        path = tmp_path / "superflat.txt"
        code, out, err = run_cli(
            capsys, "superflat", "--a", "16", "--certify", "--precision", bits, "--out", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error: the boundary deviation eps2") and "rounding noise" in err
        assert not path.exists()

    @pytest.mark.parametrize("bits", ["160", "192"])
    def test_direct_sup_rounding_noise_exits_2_and_writes_nothing(self, capsys, tmp_path, bits):
        # At a = 16 eps2 clears its floor at 160 and 192 bits, but the
        # order-1 direct sup does not: 160 bits give the noise 1.566e-48
        # (256 bits give 1.724e-52), and 192 bits give 1.72386e-52, 0.016
        # binary digits under its floor.
        path = tmp_path / "superflat.txt"
        code, out, err = run_cli(
            capsys, "superflat", "--a", "16", "--certify", "--precision", bits, "--out", str(path)
        )
        assert code == 2 and out == ""
        assert err.startswith(
            f"error: the order-1 direct sup |g^(1)(i)| is rounding noise at {bits} bits"
        )
        assert not path.exists()


class TestVerify:
    def test_quick_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(line.startswith("PASS ") for line in lines)
        assert len(lines) == 14

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "verify.txt"
        code, out, err = run_cli(capsys, "verify", "--quick", "--out", str(target))
        assert code == 0 and out == ""
        names = [name for name, _ in checks.ALL_CHECKS]
        assert target.read_text() == "".join(f"PASS {name}\n" for name in names)
        assert len(names) == 14 and len(err.splitlines()) == 14

    @pytest.mark.parametrize("option", [("--precision", "96"), ("--full-precision",)])
    def test_takes_no_precision_options(self, capsys, option):
        code, out, _ = run_cli(capsys, "verify", "--quick", *option)
        assert code == 2 and out == ""

    def test_seconds_per_check_go_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--quick")
        names = [name for name, _ in checks.ALL_CHECKS]
        assert code == 0
        assert out == "".join(f"PASS {name}\n" for name in names)
        lines = err.splitlines()
        assert [line.split(" ")[0] for line in lines] == names
        for line in lines:
            name, seconds = line.split(" ")
            assert float(seconds) >= 0 and seconds == f"{float(seconds):.3f}"

    def test_failed_check_is_timed_too(self, capsys, monkeypatch):
        def broken(quick):
            raise MathInvariantError("broken on purpose")

        monkeypatch.setattr(checks, "ALL_CHECKS", (("broken", broken),))
        code, out, err = run_cli(capsys, "verify", "--quick")
        assert code == 3
        assert out == "FAIL broken: broken on purpose\n"
        assert err.split(" ")[0] == "broken" and len(err.splitlines()) == 1

    def test_failed_check_still_writes_out_file(self, capsys, monkeypatch, tmp_path):
        # The one exception to "a failed command leaves no file": the FAIL
        # lines are the report, and --out is where stdout went.
        def broken(quick):
            raise MathInvariantError("broken on purpose")

        monkeypatch.setattr(checks, "ALL_CHECKS", (("broken", broken),))
        target = tmp_path / "verify.txt"
        code, out, _ = run_cli(capsys, "verify", "--quick", "--out", str(target))
        assert code == 3 and out == ""
        assert target.read_text() == "FAIL broken: broken on purpose\n"

    def test_determinism_check_catches_drift(self, monkeypatch):
        checks.check_determinism(False)
        real = checks._determinism_text
        monkeypatch.setattr(checks, "_determinism_text", lambda: real() + "drift\n")
        with pytest.raises(MathInvariantError, match="differ from the reference"):
            checks.check_determinism(False)

    @pytest.mark.parametrize("seed", ["0", "1", "4294967295"])
    def test_reference_matches_fresh_interpreters(self, seed):
        # The cross-process oracle: another interpreter, under another hash
        # seed, writes the very bytes that verify compares with.
        src = os.path.dirname(os.path.dirname(os.path.abspath(checks.__file__)))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from gausdisk.checks import _determinism_text; "
            "sys.stdout.buffer.write(_determinism_text().encode())"
        )
        child = subprocess.run(
            [sys.executable, "-c", code, src],
            capture_output=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
            timeout=120,
        )
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout == checks._ARTIFACT_REFERENCE.encode()


class TestSamples:
    @pytest.mark.parametrize(
        "argv",
        [
            ("supdisk", "--measure", "rule:2", "--r", "1"),
            ("figure", "--grid", "4:6:1"),
        ],
        ids=["supdisk", "figure"],
    )
    def test_samples_above_the_ceiling_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--samples", "10001")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--samples must be at most 10000" in err


class TestPrecedence:
    """The precision is the explicit --precision, else the policy: no
    environment variable or option file feeds a subcommand."""

    @pytest.mark.parametrize("value", ["96", "not-bits", "32", "999999999"])
    def test_environment_variable_is_ignored(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GAUSDISK_PRECISION", value)
        code, out, err = run_cli(capsys, "rule", "--k", "2")
        assert code == 0 and err == ""
        assert out == "node,weight\n-1e0@139,5e-1@139\n1e0@139,5e-1@139\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "--measure", "rule:4", "--z", "1"),
            ("supdisk", "--r", "1"),
            ("figure", "--grid", "4"),
            ("superflat", "--a", "4"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_environment_variable_changes_no_output(self, capsys, monkeypatch, argv):
        monkeypatch.delenv("GAUSDISK_PRECISION", raising=False)
        plain = run_cli(capsys, *argv)
        assert plain[0] == 0
        monkeypatch.setenv("GAUSDISK_PRECISION", "96")
        assert run_cli(capsys, *argv) == plain

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSDISK_PRECISION", "96")
        _, out, _ = run_cli(capsys, "rule", "--k", "2", "--precision", "128")
        assert "@128" in out and "@96" not in out

    def test_env_auto_falls_through(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSDISK_PRECISION", "auto")
        code, out, _ = run_cli(capsys, "rule", "--k", "2")
        assert code == 0
        assert out == "node,weight\n-1e0@139,5e-1@139\n1e0@139,5e-1@139\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("rule", "--k", "2"),
            ("transform", "--z", "1"),
            ("supdisk", "--r", "1"),
            ("figure", "--grid", "4"),
            ("superflat", "--a", "4"),
            ("verify", "--quick"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_config_option_is_rejected(self, capsys, tmp_path, argv):
        conf = tmp_path / "conf.txt"
        conf.write_text("precision=96\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(conf))
        assert code == 2 and out == ""
        assert "unrecognized arguments: --config" in err

    def test_low_precision_rejected(self, capsys):
        code, _, err = run_cli(capsys, "rule", "--k", "2", "--precision", "32")
        assert code == 2 and "at least 64" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "--measure", "gauss", "--z", "1", "--precision", "999999999999"),
            ("transform", "--measure", "rule:3", "--z", "1e30"),
            ("supdisk", "--measure", "gauss", "--r", "1e9"),
        ],
    )
    def test_precision_above_maximum_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "262144" in err


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys, )[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("supdisk", "--r", "0"),
            ("supdisk", "--measure", "gauss", "--line", "--r", "1"),
            ("transform", "--measure", "trunc:60", "--z", "1", "--z", "10"),
        ],
        ids=["zero-radius", "line-needs-support", "second-point-fails"],
    )
    def test_failed_command_leaves_no_out_file(self, capsys, tmp_path, argv):
        path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")
        assert not path.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("rule", "--a", "-3"), "support half-width must be at least 1"),
            (("supdisk", "--r", "-1"), "circle radius must be positive"),
            (
                ("supdisk", "--measure", "rule:4", "--line", "--r", "-1"),
                "line offset must be nonnegative",
            ),
            (("supdisk", "--r", "0"), "circle radius must be positive"),
            (("figure", "--b", "0"), "disk radius b must be positive"),
            (("superflat", "--a", "3"), "the superflat construction requires a >= 4"),
        ],
        ids=["rule-a", "supdisk-circle", "supdisk-line", "supdisk-zero", "figure-b", "superflat-a"],
    )
    def test_range_is_checked_by_the_library(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "rule",
            "--k",
            "2",
            "--out",
            str(tmp_path / "missing_dir" / "x.csv"),
        )
        assert code == 4

    def test_version(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0 and out.startswith("gausdisk ")

    @pytest.mark.parametrize("value", ["inf", "nan", "1e400"])
    @pytest.mark.parametrize(
        "argv, message",
        [
            (("transform", "--measure", "trunc:{}", "--z", "1"), "half-width must be finite"),
            (("rule", "--a", "{}"), "rule: --a must be finite"),
            (("supdisk", "--r", "{}"), "supdisk: --r must be finite"),
            (("figure", "--b", "{}"), "figure: --b must be finite"),
            (("superflat", "--a", "{}"), "superflat: --a must be finite"),
            (("figure", "--grid", "4,{}"), "figure: --grid values must be finite"),
            (("figure", "--grid", "4:{}:1"), "figure: --grid values must be finite"),
        ],
        ids=["trunc", "rule", "supdisk", "figure", "superflat", "grid", "grid-range"],
    )
    def test_non_finite_number_is_named(self, capsys, argv, message, value):
        code, out, err = run_cli(capsys, *(arg.format(value) for arg in argv))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
