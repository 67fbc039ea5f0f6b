"""The package and the CLI load only what a command runs.

``import gausdisk`` loads none of its modules, and no command loads a
layer it does not use: help and usage need no mpmath, ``figure`` neither
the checks, the superflat nor the scan layer (``disks``), ``rule``,
``transform`` and ``superflat --certify`` no scan layer either, and no
command needs ``dataclasses`` or ``subprocess``.
Each of those tests runs a fresh interpreter, since this one has long
loaded everything.
"""

import functools
import importlib
import os
import subprocess
import sys

import pytest

import gausdisk

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gausdisk.__file__)))
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli")

# The package's exports by home module, as the eager import block bound them.
EXPORTS = {
    "precision": (
        "MIN_BITS", "MAX_BITS", "PReal", "PComplex", "exp", "log", "sqrt", "pi_value",
        "cos_sin", "double_factorial", "working_bits",
    ),
    "errors": (
        "GausdiskError", "ConfigError", "InsufficientDataError", "MathInvariantError",
        "NonFiniteError", "ConvergenceError", "SupportViolation", "ConvexityViolation",
        "EnvelopeViolation", "ChainViolation", "CertificateViolation",
    ),
    "hermite": (
        "QuadratureRule", "hermite_pair", "build_rule", "moment", "k_for_support",
        "rule_to_csv",
    ),
    "measures": (
        "Measure", "DiscreteMeasure", "TruncatedGaussian", "StandardGaussian",
        "CharBoundReport", "normal_cdf", "truncation_error_closed_form",
        "char_bound_check",
    ),
    "disks": (
        "CircleSupReport", "LineSupReport", "GrowthProfile", "ConvexityReport",
        "sup_abs_on_circle", "sup_on_circle", "sup_on_line", "growth_profile",
        "three_circles_check", "three_lines_check",
    ),
    "superflat": (
        "SuperflatMixture", "FlatnessCertificate", "build_superflat",
        "density_derivative", "density_derivatives", "flatness_certificate",
        "superflat_to_csv",
    ),
    "experiments": (
        "RateRow", "RateTable", "RateFit", "TailBoundModel", "TailChainReport",
        "default_grid", "run_figure", "fit_truncation_rate", "fit_quadrature_rate",
        "fit_c1", "tail_bound_value", "validate_tail_bound", "figure_csv_text",
        "figure_svg_text", "manifest_text", "emit_figure",
    ),
}
COMMANDS = ("rule", "transform", "supdisk", "figure", "superflat", "verify")
# One small run of each command.
SMALL_RUNS = {
    "rule": ("rule", "--k", "4"),
    "transform": ("transform", "--measure", "trunc:6", "--z", "0.5", "--t", "2"),
    "supdisk": ("supdisk", "--measure", "rule:3", "--r", "2", "--line", "--samples", "16"),
    "figure": ("figure", "--grid", "4.3,6.0", "--samples", "16"),
    "superflat": ("superflat", "--a", "4", "--certify"),
    "verify": ("verify", "--quick"),
}
# The report records, by home module.
RECORDS = {
    "disks": ("CircleSupReport", "LineSupReport", "GrowthProfile", "ConvexityReport"),
    "experiments": ("RateRow", "RateTable", "RateFit", "TailBoundModel", "TailChainReport"),
    "measures": ("CharBoundReport",),
    "superflat": ("SuperflatMixture", "FlatnessCertificate"),
}


def run_python(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports gausdisk from this tree."""
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {code}", *argv],
        capture_output=True,
        timeout=120,
    )


def run_cli_blocking(modules, *argv: str) -> subprocess.CompletedProcess:
    """``main(argv)`` in a fresh interpreter where importing ``modules`` fails."""
    block = "".join(f"sys.modules[{name!r}] = None; " for name in modules)
    return run_python(
        f"{block}from gausdisk.cli import main; sys.exit(main(sys.argv[1:]))", *argv
    )


@pytest.mark.parametrize(
    "argv",
    [("--help",), ("--version",), *((command, "--help") for command in COMMANDS)],
    ids=lambda argv: " ".join(argv),
)
def test_help_and_version_load_no_mpmath(argv):
    result = run_cli_blocking(["mpmath"], *argv)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.startswith(b"usage: gausdisk" if "--help" in argv else b"gausdisk ")


@pytest.mark.parametrize(
    "argv",
    [("figure", "--grid", "4", "--b", "inf"), ("verify", "--quick", "--no-such-option")],
    ids=["finite-check", "usage-error"],
)
def test_rejected_input_loads_no_mpmath(argv):
    result = run_cli_blocking(["mpmath"], *argv)
    assert result.returncode == 2, result.stderr.decode()
    assert b"ImportError" not in result.stderr and b"Traceback" not in result.stderr


def test_figure_loads_neither_checks_superflat_nor_disks():
    argv = ("figure", "--grid", "4.3,6.0,6.5,7.6,8.3", "--b", "1", "--samples", "64")
    result = run_cli_blocking(["gausdisk.checks", "gausdisk.superflat", "gausdisk.disks"], *argv)
    assert result.returncode == 0, result.stderr.decode()
    with open(os.path.join(GOLDEN, "figure_rate.txt"), "rb") as handle:
        assert result.stdout == handle.read()


def test_superflat_certificate_loads_no_disks():
    result = run_cli_blocking(["gausdisk.disks"], "superflat", "--a", "4", "--certify")
    assert result.returncode == 0, result.stderr.decode()
    golden = os.path.join(os.path.dirname(GOLDEN), "superflat_a4_certify_s64.txt")
    with open(golden, "rb") as handle:
        assert result.stdout == handle.read()


@functools.cache
def runs_blocking_dataclasses_and_subprocess(command):
    """One run of ``command`` with both modules blocked, and one unblocked run."""
    argv = SMALL_RUNS[command]
    return run_cli_blocking(("dataclasses", "subprocess"), *argv), run_cli_blocking((), *argv)


def assert_blocked_run_matches(command):
    blocked, unblocked = runs_blocking_dataclasses_and_subprocess(command)
    assert blocked.returncode == 0, blocked.stderr.decode()
    assert blocked.stdout == unblocked.stdout


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_run_without_dataclasses(command):
    assert_blocked_run_matches(command)


@pytest.mark.parametrize("command", COMMANDS)
def test_commands_run_without_subprocess(command):
    assert_blocked_run_matches(command)


@pytest.mark.parametrize("command", ["rule", "transform"])
def test_rule_and_transform_load_no_disks(command):
    result = run_python(
        "from gausdisk.cli import main; code = main(sys.argv[1:]); "
        "sys.exit(code or ('gausdisk.disks' in sys.modules and 'gausdisk.disks was loaded'))",
        *SMALL_RUNS[command],
    )
    assert result.returncode == 0, result.stderr.decode()


@pytest.mark.parametrize("command", ["figure", "verify"])
def test_figure_and_verify_load_no_inspect(command):
    result = run_python(
        "from gausdisk.cli import main; code = main(sys.argv[1:]); "
        "sys.exit(code or ('inspect' in sys.modules and 'inspect was loaded'))",
        *SMALL_RUNS[command],
    )
    assert result.returncode == 0, result.stderr.decode()


def test_records_are_immutable():
    assert sum(len(names) for names in RECORDS.values()) == 12
    for module, names in RECORDS.items():
        home = importlib.import_module(f"gausdisk.{module}")
        for name in names:
            cls = getattr(home, name)
            fields = list(cls.__annotations__)
            record = cls(*fields)
            for field in fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, None)
                assert getattr(record, field) == field, (name, field)


def test_import_gausdisk_loads_no_module_of_its_own():
    result = run_python(
        "import gausdisk; "
        "print(sorted(m for m in sys.modules if m == 'mpmath' or m.startswith('gausdisk.')))"
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"[]\n"


def test_every_export_is_its_home_modules_object():
    exported = {name for names in EXPORTS.values() for name in names}
    assert set(gausdisk.__all__) == {"__version__", *exported}
    assert len(gausdisk.__all__) == 70
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"gausdisk.{module}")
        for name in names:
            assert getattr(gausdisk, name) is getattr(home, name), name
    assert set(EXPORTS["disks"]) <= set(dir(gausdisk))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from gausdisk import *", namespace)
    assert set(gausdisk.__all__) <= set(namespace)
    assert namespace["PReal"] is importlib.import_module("gausdisk.precision").PReal


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gausdisk.no_such_name
    assert not hasattr(gausdisk, "circle_point")  # a disks name the package does not export
