"""Error-rate experiment driver, fits, tail chain audit, artifacts."""

import functools
import json
import math
from fractions import Fraction

import pytest

from gausdisk import experiments
from gausdisk.errors import ChainViolation, ConfigError, InsufficientDataError
from gausdisk.experiments import (
    RateRow,
    RateTable,
    default_grid,
    emit_figure,
    figure_csv_text,
    figure_svg_text,
    fit_c1,
    fit_quadrature_rate,
    fit_truncation_rate,
    manifest_text,
    run_figure,
    tail_bound_value,
    validate_tail_bound,
)
from gausdisk.hermite import k_for_support
from gausdisk.precision import PReal, exp, sqrt, working_bits


@pytest.fixture(scope="module")
def small_table():
    return run_figure([4, 5, 6, 7, 8], n_samples=64)


def make_synthetic_table(errs, b=1.0):
    rows = []
    for a, err in errs:
        rows.append(
            RateRow(
                a=a,
                k=math.ceil(a * a / 8),
                bits=256,
                err_trunc=PReal(err, 256) / 10,
                err_quad=PReal(err, 256),
            )
        )
    return RateTable(b=b, n_samples=0, rows=tuple(rows))


class TestRunFigure:
    def test_default_grid(self):
        grid = default_grid()
        assert grid[0] == 4.0 and grid[-1] == 12.0
        assert len(grid) == 17
        assert all(b - a == 0.5 for a, b in zip(grid, grid[1:]))

    def test_known_error_values(self, small_table):
        rows = {row.a: row for row in small_table.rows}
        assert float(rows[4.0].err_trunc) == pytest.approx(2.121779e-03, rel=1e-5)
        assert float(rows[4.0].err_quad) == pytest.approx(1.056406e-01, rel=1e-5)
        assert float(rows[5.0].err_trunc) == pytest.approx(5.127349e-05, rel=1e-5)
        assert float(rows[6.0].err_quad) == pytest.approx(4.184208e-05, rel=1e-5)
        assert float(rows[8.0].err_trunc) == pytest.approx(2.108003e-12, rel=1e-5)
        assert float(rows[8.0].err_quad) == pytest.approx(2.446517e-09, rel=1e-5)

    def test_rows_sorted_and_kitted(self, small_table):
        for row in small_table.rows:
            assert row.k == math.ceil(row.a**2 / 8)
            assert row.bits == working_bits(row.a, 1.0)
        a_values = [row.a for row in small_table.rows]
        assert a_values == sorted(a_values)

    def test_stable_under_extra_precision(self, small_table):
        redo = run_figure([4.0], n_samples=64, bits_override=working_bits(4, 1) + 64)
        base = small_table.rows[0]
        lift = redo.rows[0]
        assert lift.bits == base.bits + 64
        assert float(lift.err_trunc) == pytest.approx(float(base.err_trunc), rel=1e-9)
        assert float(lift.err_quad) == pytest.approx(float(base.err_quad), rel=1e-9)

    def test_bits_override(self):
        table = run_figure([4.0], n_samples=16, bits_override=256)
        assert table.rows[0].bits == 256

    def test_progress_callback(self):
        seen = []
        run_figure([4.0], n_samples=16, progress=seen.append)
        assert len(seen) == 1 and "k=2" in seen[0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_figure([])
        with pytest.raises(ConfigError):
            run_figure([4], b=0)

    def test_too_few_samples(self):
        # No sample count changes a row, but the table records it, so it
        # is held to what a scan needs.
        with pytest.raises(ConfigError, match="^need at least 3 scan samples$"):
            run_figure([4.0], n_samples=2)
        assert run_figure([4.0], n_samples=3).n_samples == 3

    def test_preal_radius_writes_what_the_equal_float_writes(self):
        """The table stores b as the float run_figure validated, so a PReal
        b renders the CSV, SVG and manifest of the equal float."""
        texts = []
        for b in (1.0, PReal(1, 64)):
            table = run_figure([4, 5], b=b, n_samples=16)
            assert type(table.b) is float
            texts.append((figure_csv_text(table), figure_svg_text(table), manifest_text(table)))
        assert texts[0] == texts[1]


class TestFits:
    def test_truncation_rate(self, small_table):
        fit = fit_truncation_rate(small_table)
        assert fit.n_rows == 5
        assert fit.x_label == "a^2"
        assert -0.5 < fit.slope < -0.4

    def test_truncation_rate_needs_rows(self):
        table = make_synthetic_table([(4.0, 1e-3), (5.0, 1e-4)])
        with pytest.raises(InsufficientDataError):
            fit_truncation_rate(table)

    def test_quadrature_rate_excludes_small_a(self, small_table):
        with pytest.raises(InsufficientDataError):
            fit_quadrature_rate(small_table)

    def test_quadrature_rate_on_enough_rows(self):
        table = run_figure([6, 6.5, 7, 7.5, 8], n_samples=64)
        fit = fit_quadrature_rate(table)
        assert fit.n_rows == 5
        assert fit.x_label == "a^2 ln a"
        assert fit.slope < -0.1

    def test_c1_fit_on_measured_rows(self, small_table):
        model = fit_c1(small_table)
        assert model.binding_a == 8.0
        assert not model.floored
        assert float(model.c1) == pytest.approx(2.16299, rel=1e-4)
        # fitted bound covers every measured row; the binding row meets
        # its bound with equality up to final rounding
        for row in small_table.rows:
            bound = tail_bound_value(model.c1, row.a, small_table.b)
            assert row.err_quad.round_to(256) <= bound * (1 + PReal(2, 256) ** -240)

    def test_c1_floor(self):
        table = make_synthetic_table([(4.0, 1e-12), (6.0, 1e-20)])
        model = fit_c1(table)
        assert model.floored and model.binding_a is None
        want = math.e / 2
        assert float(model.c1) == pytest.approx(want, rel=1e-12)

    def test_tail_bound_value_hand_formula(self):
        got = tail_bound_value(2, 4, 1)
        assert float(got) == pytest.approx(3 * 0.5**4, rel=1e-12)


class TestTailChain:
    def test_divergent_regime_at_a6(self, small_table):
        row = {r.a: r for r in small_table.rows}[6.0]
        report = validate_tail_bound(6, 1, err_quad=row.err_quad)
        assert report.k == 5
        assert report.q_geometric > 1
        assert report.k_sum is None and report.closed_bound is None
        assert float(report.ell_sum) == pytest.approx(183.237, rel=1e-4)
        assert report.checks["err_le_ell_sum"] is True
        assert report.checks["ell_le_k_sum"] is None
        assert report.passed

    def test_geometric_regime_at_a11(self):
        report = validate_tail_bound(11, 1)
        assert report.closed_bound is None
        assert 0.9 < report.q_geometric < 1.0
        assert report.k_sum is not None
        assert report.checks["ell_le_k_sum"] is True

    def test_fit_bound_checked_when_supplied(self, small_table):
        model = fit_c1(small_table)
        row = small_table.rows[0]
        report = validate_tail_bound(
            row.a, 1, c1_fit=model.c1, err_quad=row.err_quad
        )
        assert report.fit_bound is not None
        assert report.checks["err_le_fit"] is True

    def test_chain_violation_on_impossible_error(self):
        with pytest.raises(ChainViolation):
            validate_tail_bound(6, 1, err_quad=PReal(10**6, 320))

    @pytest.mark.parametrize("b", [1e-30, 1e-12, 1e-3])
    def test_shared_first_term_no_longer_swamps_the_comparison(self, b):
        # S and the geometric sum share their l = k term exactly; at tiny b
        # that term is all of both, far past the ceiling's 2**-60 slack.
        report = validate_tail_bound(4, b, bits=320)
        assert report.k_sum is not None
        assert report.checks["ell_le_k_sum"] is True
        assert report.passed

    def test_small_disk_shrinks_majorant(self):
        wide = validate_tail_bound(8, 1.0)
        narrow = validate_tail_bound(8, 0.25)
        assert float(narrow.ell_sum) < float(wide.ell_sum)

    def test_checks_are_read_only(self):
        report = validate_tail_bound(6.0, 1.0)
        with pytest.raises(TypeError):
            report.checks["err_le_fit"] = True
        assert report.checks["err_le_fit"] is None

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigError):
            validate_tail_bound(6, 0)


@functools.lru_cache(maxsize=None)
def parent_ell_sum(af: float, bf: float, bits: int, k: int | None = None) -> PReal:
    """The l-indexed majorant as the audit once summed it: round to nearest
    at bits + 64 until a term falls below 2**-(bits + 32) of the partial
    sum, or of 1.  The oracle of ``_ell_sum_ceiling``; returned unrounded.
    The sum starts at l = k, by default the rule size ``k_for_support(a)``."""
    if k is None:
        k = k_for_support(PReal(af, bits))
    wp = bits + 64
    e_val = exp(PReal(1, wp))
    a_p = PReal(af, wp)
    b_p = PReal(bf, wp)

    # The l-indexed majorant; terms eventually decay superexponentially.
    total = PReal(0, wp)
    tiny = PReal(2, wp) ** (-(bits + 32))
    ell = k
    while True:
        t1 = (e_val * a_p * b_p / (2 * ell)) ** (2 * ell)
        t2 = (e_val * b_p / sqrt(PReal(2 * ell, wp))) ** (2 * ell)
        term = t1 + t2
        total = total + term
        scale = total if total > 1 else PReal(1, wp)
        if ell > k + 4 and term < tiny * scale:
            break
        ell += 1
        if ell > k + 100000:
            raise ChainViolation("l-indexed tail sum failed to converge")
    return total


def oracle_ell_sum(a: float, b: float) -> PReal:
    """``parent_ell_sum`` at 512 bits, or deeper when S < 1, where its stop
    rule is absolute: at 512 bits it drops every term below 2**-544, a
    relative 8e-13 of S at a = 40, b = 1."""
    first = parent_ell_sum(a, b, 512)
    size = first.raw[2] + first.raw[3]
    return first if size >= 0 else parent_ell_sum(a, b, 512 - size)


def exact(x: PReal) -> Fraction:
    sign, man, e, _ = x.raw
    return (-1) ** sign * Fraction(man) * Fraction(2) ** e


# a = 2.5 is the smallest half-width that hosts a rule (k = 1), in place of
# a = 1, which hosts none: sqrt(4k + 2) > 1 for every k.  At (4, 16) the
# terms fall below 2**-64 of the sum while their ratio is still above 1/2,
# so a sum that stopped on that rule alone would fall short of S.
ORACLE_ROWS = [
    (a, b)
    for a in (2.5, 4, 6, 8.35, 11, 12, 20, 40)
    for b in (0.25, 0.5, 1, 2, 8)
    if a + b <= 64
] + [(4, 16)]


class TestEllSumCeiling:
    @pytest.mark.parametrize("bits", [64, 320, 512])
    @pytest.mark.parametrize("a,b", ORACLE_ROWS)
    def test_ceiling_brackets_the_oracle(self, a, b, bits):
        # At 64 bits, below the sum's own 128, the ceiling is narrowed upward.
        got = exact(validate_tail_bound(a, b, bits=bits).ell_sum)
        want = exact(oracle_ell_sum(float(a), float(b)))
        assert want * (1 - Fraction(1, 2**100)) <= got <= want * (1 + Fraction(1, 2**58))

    @pytest.mark.parametrize("bits", [64, 320, 512])
    @pytest.mark.parametrize("a,b", ORACLE_ROWS)
    def test_verdicts_match_the_parent_loop(self, monkeypatch, a, b, bits):
        err = (parent_ell_sum(float(a), float(b), 512) / 1024).round_to(64)
        args = (a, b, 2, err, bits)
        new = validate_tail_bound(*args).checks
        monkeypatch.setattr(
            experiments,
            "_ell_sum_ceiling",
            lambda af, bf, k: parent_ell_sum(af, bf, bits, k).round_to(bits).raw,
        )
        old = validate_tail_bound(*args).checks
        assert new == old


class TestTailDomain:
    @pytest.mark.parametrize(
        "args,match",
        [
            ((1, 0.5, 1), "a=0.5"),
            ((1, 65, 1), "a=65"),
            ((1, 4, 0), "disk radius b"),
            ((1, 60, 5), r"a \+ b"),
            ((0, 4, 1), "c1"),
        ],
        ids=["a-below-1", "a-above-64", "b-not-positive", "a-plus-b", "c1-not-positive"],
    )
    def test_tail_bound_value_rejects(self, args, match):
        with pytest.raises(ConfigError, match=match):
            tail_bound_value(*args)

    @pytest.mark.parametrize(
        "args,match",
        [((0.5, 1), "a=0.5"), ((65, 1), "a=65"), ((60, 5), r"a \+ b"), ((4, 1e3), r"a \+ b")],
        ids=["a-below-1", "a-above-64", "a-plus-b", "wide-disk"],
    )
    def test_validate_tail_bound_rejects(self, args, match):
        with pytest.raises(ConfigError, match=match):
            validate_tail_bound(*args)


class TestArtifacts:
    def test_csv_layout(self, small_table):
        model = fit_c1(small_table)
        text = figure_csv_text(small_table, model)
        lines = text.strip().split("\n")
        assert lines[0] == "a,k,log10_err_trunc,log10_err_quad,log10_tail_bound"
        assert len(lines) == 1 + len(small_table.rows)
        first = lines[1].split(",")
        assert first[0] == "4" and first[1] == "2"
        want = math.log10(float(small_table.rows[0].err_trunc))
        assert float(first[2]) == pytest.approx(want, abs=1e-9)
        assert len(first[2].split(".")[1]) == 12

    def test_csv_without_model_leaves_tail_empty(self, small_table):
        text = figure_csv_text(small_table)
        assert text.strip().split("\n")[1].endswith(",")

    def test_csv_deterministic(self, small_table):
        model = fit_c1(small_table)
        assert figure_csv_text(small_table, model) == figure_csv_text(
            small_table, model
        )

    def test_svg_structure(self, small_table):
        model = fit_c1(small_table)
        text = figure_svg_text(small_table, model)
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        for color in ("#1f6fb2", "#c23d3d", "#3d8f4f"):
            assert color in text
        assert text == figure_svg_text(small_table, model)

    def test_svg_without_model_has_two_series(self, small_table):
        text = figure_svg_text(small_table)
        assert "#3d8f4f" not in text
        assert "#1f6fb2" in text and "#c23d3d" in text

    def test_manifest_is_sorted_json(self, small_table):
        model = fit_c1(small_table)
        trunc_fit = fit_truncation_rate(small_table)
        text = manifest_text(small_table, trunc_fit, None, model)
        data = json.loads(text)
        assert data["b"] == 1.0
        assert data["n_samples"] == 64
        assert len(data["rows"]) == 5
        assert data["rows"][0]["a"] == 4.0
        assert data["c1_fit"]["binding_a"] == 8.0
        assert PReal.parse(data["c1_fit"]["tag"]) == model.c1
        assert data["fits"]["truncation"]["slope"] == trunc_fit.slope
        assert data["fits"]["quadrature"] is None
        assert data["scan_resolution_exp"] == -64
        # keys appear in sorted order for byte determinism
        dumped = json.dumps(data, sort_keys=True, indent=2)
        assert dumped == text.strip()

    def test_emit_figure_writes_requested_files(self, small_table, tmp_path):
        model = fit_c1(small_table)
        csv_path = tmp_path / "fig.csv"
        svg_path = tmp_path / "fig.svg"
        manifest_path = tmp_path / "fig.json"
        written = emit_figure(
            small_table,
            csv_path=str(csv_path),
            svg_path=str(svg_path),
            manifest_path=str(manifest_path),
            model=model,
        )
        assert written == [str(csv_path), str(svg_path), str(manifest_path)]
        assert csv_path.read_text() == figure_csv_text(small_table, model)
        assert svg_path.read_text() == figure_svg_text(small_table, model)
        assert json.loads(manifest_path.read_text())["rows"]

    def test_emit_figure_noop_without_paths(self, small_table):
        assert emit_figure(small_table) == []
