"""CLI output is byte-identical to the golden files in tests/data/cli.

Each case is one command line; its stdout (and, for ``figure``, the CSV,
SVG and manifest it writes) must match the stored bytes exactly.  Most
cases print 40 digits; the ``--full-precision`` cases print every raw bit,
and those of ``superflat`` and of a truncated ``transform`` pin the
Hermite rows kernel and the truncated series to the last bit.  So must
every ``--help`` text, printed at 80 columns.  The goldens were captured
before the option table was rebuilt on argparse, so they pin the output
across changes to the CLI plumbing.
"""

import os

import pytest

from gausdisk.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli")

CASES = {
    "rule_k8_p128": ("rule", "--k", "8", "--precision", "128"),
    "rule_a6": ("rule", "--a", "6"),
    "transform_trunc6": (
        "transform", "--measure", "trunc:6", "--z", "0.5", "--z", "0.5,1.5", "--t", "2",
    ),
    "transform_rulefor5_laplace_full": (
        "transform", "--measure", "rulefor:5", "--what", "laplace", "--z", "1,1",
        "--full-precision",
    ),
    "transform_rule4_char": ("transform", "--measure", "rule:4", "--what", "char", "--t", "3"),
    "supdisk_rulefor4_circle": ("supdisk", "--measure", "rulefor:4", "--r", "1", "--samples", "128"),
    "supdisk_rule3_line": ("supdisk", "--measure", "rule:3", "--r", "2", "--line", "--samples", "64"),
    # A measure with no mirror symmetry, so the circle sup comes from a scan.
    "supdisk_csv3_circle": (
        "supdisk", "--measure", f"csv:{os.path.join(GOLDEN, 'three_atoms.csv')}", "--r", "3",
        "--samples", "64", "--precision", "192",
    ),
    "figure_rate": ("figure", "--grid", "4.3,6.0,6.5,7.6,8.3", "--b", "1", "--samples", "64"),
    "figure_rate_full": (
        "figure", "--grid", "4.3,6.0,6.5,7.6,8.3", "--b", "1", "--samples", "64", "--full-precision",
    ),
    "figure_large_a": ("figure", "--grid", "24,32", "--b", "1", "--samples", "64"),
    "superflat_a6_certify_full": ("superflat", "--a", "6", "--certify", "--full-precision"),
    "transform_trunc12_laplace_full": (
        "transform", "--measure", "trunc:12", "--z", "1", "--z", "0.3,0.9", "--z", "0,2",
        "--what", "laplace", "--full-precision",
    ),
}
# The help texts at 80 columns: "help" for the program, "help_CMD" for a subcommand.
HELP = {
    "help": (),
    **{
        f"help_{command}": (command,)
        for command in ("rule", "transform", "supdisk", "figure", "superflat", "verify")
    },
}
FIGURE = ("figure", "--grid", "4:6:1", "--samples", "64")
FIGURE_ARTIFACTS = {"--csv": "figure.csv", "--svg": "figure.svg", "--manifest": "figure.json"}


def golden_bytes(name: str) -> bytes:
    with open(os.path.join(GOLDEN, name), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == golden_bytes(f"{name}.txt")


@pytest.mark.parametrize("name", sorted(HELP))
def test_help_matches_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    code = main([*HELP[name], "--help"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == golden_bytes(f"{name}.txt")


def test_figure_matches_golden(capsys, tmp_path):
    argv = list(FIGURE)
    for flag, name in FIGURE_ARTIFACTS.items():
        argv += [flag, str(tmp_path / name)]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == golden_bytes("figure.txt")
    for name in FIGURE_ARTIFACTS.values():
        assert (tmp_path / name).read_bytes() == golden_bytes(name), name
