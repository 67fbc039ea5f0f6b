"""Error-rate experiment driver, fits, tail chain audit, artifacts."""

import json
import math

import pytest

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
from gausdisk.precision import PReal, working_bits


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

    def test_small_disk_shrinks_majorant(self):
        wide = validate_tail_bound(8, 1.0)
        narrow = validate_tail_bound(8, 0.25)
        assert float(narrow.ell_sum) < float(wide.ell_sum)

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigError):
            validate_tail_bound(6, 0)


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
