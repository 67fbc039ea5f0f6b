"""Command line front end.

Every subcommand prints deterministic text: identical inputs produce
byte-identical output. Numeric results are shown with 40 significant
digits by default; --full-precision switches to exact serialized tags
that round-trip without loss.

A --config file holds key=value lines; each becomes the option --key=value
placed right after the subcommand, so argparse checks it like a typed
option and the options typed after it win.

Each input rule is checked once: argparse checks types and choices,
``main`` that float options are finite and --samples is from 8 to 10,000
(``_parse_grid_text`` applies the same finite rule inside --grid), and
the library the ranges (ConfigError).  Subcommands check only what the
library cannot say as well: --k >= 1, a positive spec half-width, one of
--k or --a, the grid.  --out PATH is written only when the command succeeds.

Exit codes: 0 success, 2 configuration or usage problems, 3 violated
mathematical invariants, 4 file I/O failures.
"""

from __future__ import annotations

import argparse
import io
import math
import os
import sys
from contextlib import contextmanager, redirect_stdout

from . import __version__, checks
from .disks import sup_on_circle, sup_on_line
from .errors import ConfigError, MathInvariantError, NonFiniteError
from .experiments import (
    default_grid,
    emit_figure,
    fit_c1,
    fit_quadrature_rate,
    fit_truncation_rate,
    run_figure,
    validate_tail_bound,
)
from .hermite import build_rule, k_for_support, rule_to_csv
from .measures import (
    DiscreteMeasure,
    StandardGaussian,
    TruncatedGaussian,
)
from .precision import MAX_BITS, MIN_BITS, PComplex, PReal, working_bits
from .superflat import build_superflat, flatness_certificate, superflat_to_csv

_ENV_PRECISION = "GAUSDISK_PRECISION"
# The most values a --grid range may hold, and the most --samples may ask for.
_MAX_GRID_POINTS = 10_000


# ---------------------------------------------------------------------------
# shared option handling


def _bits_from_text(text: str, source: str) -> int:
    try:
        bits = int(text)
    except ValueError:
        raise ConfigError(
            f"{source} must be 'auto' or an integer bit count, got {text!r}"
        ) from None
    if bits < MIN_BITS:
        raise ConfigError(f"{source} must be at least {MIN_BITS} bits, got {bits}")
    if bits > MAX_BITS:
        raise ConfigError(f"{source} must be at most {MAX_BITS} bits, got {bits}")
    return bits


def _resolve_bits(args) -> int | None:
    """The explicit --precision, else the environment's; None means auto."""
    if args.precision != "auto":
        return _bits_from_text(args.precision, "--precision")
    env = os.environ.get(_ENV_PRECISION)
    if env is not None and env.strip() and env.strip().lower() != "auto":
        return _bits_from_text(env.strip(), _ENV_PRECISION)
    return None


def _fmt_real(value: PReal, full: bool) -> str:
    return value.serialize() if full else value.str_digits(40)


def _fmt_complex(value: PComplex, full: bool) -> str:
    return f"{_fmt_real(value.real, full)} {_fmt_real(value.imag, full)}"


@contextmanager
def _out_stream(path):
    """stdout, or a buffer that reaches ``path`` only if the block succeeds."""
    if path is None:
        yield sys.stdout
        return
    buffer = io.StringIO()
    yield buffer
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buffer.getvalue())


# ---------------------------------------------------------------------------
# measure specifications

_MEASURE_HELP = "gauss | trunc:A | rule:K | rulefor:A | csv:PATH"


def _measure(args, radius_hint: float):
    """Parse --measure and build it at the resolved working precision.

    Auto precision uses the support half-width implied by the spec
    together with the largest evaluation radius the command will touch.
    """
    spec = args.measure
    kind, sep, rest = spec.partition(":")
    kind = kind.strip().lower()
    rest = rest.strip()
    radius = max(1.0, float(radius_hint))
    if kind == "gauss" and not sep:
        return StandardGaussian(_resolve_bits(args) or working_bits(1.0, radius))
    if kind in ("trunc", "rulefor") and sep:
        try:
            a = float(rest)
        except ValueError:
            raise ConfigError(
                f"measure spec {spec!r}: expected a numeric half-width"
            ) from None
        if not math.isfinite(a):
            raise ConfigError(f"measure spec {spec!r}: half-width must be finite")
        if a <= 0:
            raise ConfigError(f"measure spec {spec!r}: half-width must be positive")
        if kind == "trunc":
            return TruncatedGaussian(a, _resolve_bits(args) or working_bits(a, radius))
        return _rule(args, radius, a=a)
    if kind == "rule" and sep:
        try:
            k = int(rest)
        except ValueError:
            raise ConfigError(
                f"measure spec {spec!r}: expected an integer node count"
            ) from None
        if k < 1:
            raise ConfigError(f"measure spec {spec!r}: node count must be >= 1")
        return _rule(args, radius, k=k)
    if kind == "csv" and sep:
        if not rest:
            raise ConfigError(f"measure spec {spec!r}: missing file path")
        with open(rest, "r", encoding="utf-8") as handle:
            loaded = DiscreteMeasure.from_csv(handle)
        bits = _resolve_bits(args)
        if bits is None or bits == loaded.bits:
            return loaded
        atoms = [(x.round_to(bits), w.round_to(bits)) for x, w in loaded.atoms]
        return DiscreteMeasure(atoms, bits)
    raise ConfigError(f"unknown measure spec {spec!r}; use {_MEASURE_HELP}")


def _rule(args, radius: float, k: int | None = None, a: float | None = None):
    """The k-node rule, or the smallest one whose nodes fit inside [-a, a],
    at the resolved precision; auto precision sizes for the rule's support
    and the evaluation radius."""
    if k is None:
        k, support = k_for_support(a), a
    else:
        support = math.sqrt(4 * k + 2)
    return build_rule(k, _resolve_bits(args) or working_bits(support, radius))


# ---------------------------------------------------------------------------
# config file

_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}
# Options a config file may not set: the repeatable points, help and itself.
_NOT_CONFIGURABLE = {"z", "t", "config", "help"}


def _config_tokens(path: str, commands: dict, command: str) -> list[str]:
    """The key=value lines of ``path`` as option tokens for ``command``.

    A key must name an option of some subcommand; one that ``command``
    lacks is skipped.  A flag set to a true word becomes the bare flag, to
    a false word nothing; any other key becomes --key=value.
    """
    known = {
        action.dest
        for parser in commands.values()
        for action in parser._actions
        if action.option_strings
    } - _NOT_CONFIGURABLE
    own = {action.dest: action for action in commands[command]._actions}
    tokens = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, text = line.partition("=")
            key, text = key.strip().replace("-", "_"), text.strip()
            if key not in known:
                raise ConfigError(f"unknown config key {key!r} in {path}")
            if key not in own:
                continue
            option = own[key].option_strings[0]
            if own[key].nargs != 0:
                tokens.append(f"{option}={text}")
            elif text.lower() in _TRUE_WORDS:
                tokens.append(option)
            elif text.lower() not in _FALSE_WORDS:
                raise ConfigError(f"config key {key!r}: expected a boolean, got {text!r}")
    return tokens


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rule(args) -> int:
    if (args.k is None) == (args.a is None):
        raise ConfigError("rule: give exactly one of --k or --a")
    if args.k is not None and args.k < 1:
        raise ConfigError("rule: --k must be >= 1")
    rule = _rule(args, 1.0, k=args.k, a=args.a)
    with _out_stream(args.out) as out:
        rule_to_csv(rule, out)
    return 0


def _parse_complex_token(token: str) -> tuple[str, str]:
    parts = token.replace(",", " ").split()
    if len(parts) == 1:
        return parts[0], "0"
    if len(parts) == 2:
        return parts[0], parts[1]
    raise ConfigError(f"--z expects 'RE' or 'RE,IM', got {token!r}")


def _cmd_transform(args) -> int:
    points = []  # (tag, real text, imaginary text, token as given)
    for token in args.z or []:
        points.append(("z", *_parse_complex_token(token), token))
    for token in args.t or []:
        points.append(("t", token, "0", token))
    if not points:
        raise ConfigError("transform: give at least one --z or --t")

    def size(re_text: str, im_text: str, token: str) -> float:
        """|point| as a float: inf for a finite point past double range."""
        try:
            parts = [abs(float(PReal(text, MIN_BITS))) for text in (re_text, im_text)]
        except NonFiniteError:
            raise ConfigError(f"transform: point {token!r} is not finite") from None
        return math.hypot(*parts)

    radius, farthest = max((size(*point[1:]), point[3]) for point in points)
    try:
        measure = _measure(args, radius)
    except NonFiniteError:
        if math.isfinite(radius):
            raise
        raise ConfigError(
            f"transform: point {farthest!r} is too large for automatic precision; "
            "give --precision"
        ) from None
    full = args.full_precision
    with _out_stream(args.out) as out:
        for tag, re_text, im_text, _ in points:
            re_val = PReal(re_text, measure.bits)
            im_val = PReal(im_text, measure.bits)
            # A frequency T (im_val is zero) is the point iT.
            point = PComplex(re_val, im_val) if tag == "z" else PComplex(im_val, re_val)
            if args.what == "char":
                result = measure.char_fn(point if tag == "z" else re_val)
            elif args.what == "laplace":
                result = measure.laplace(point)
            else:
                result = measure.laplace_error(point)
            print(
                f"{tag} {_fmt_real(re_val, full)} {_fmt_real(im_val, full)} "
                f"{args.what} {_fmt_complex(result, full)}",
                file=out,
            )
    return 0


def _cmd_supdisk(args) -> int:
    measure = _measure(args, args.r)
    full = args.full_precision
    with _out_stream(args.out) as out:
        if args.line:
            report = sup_on_line(measure, args.r, n_samples=args.samples)
            print(f"line_offset {_fmt_real(report.offset, full)}", file=out)
            print(f"bits {measure.bits}", file=out)
            print(f"samples {report.n_samples}", file=out)
            print(f"sup_lower_bound {_fmt_real(report.sup_value, full)}", file=out)
            print(f"witness {_fmt_complex(report.witness, full)}", file=out)
            print(f"scan_height {_fmt_real(report.height, full)}", file=out)
            print(f"tail_ceiling {_fmt_real(report.tail_ceiling, full)}", file=out)
            print(f"certified {report.certified}", file=out)
        else:
            report = sup_on_circle(measure, args.r, n_samples=args.samples)
            print(f"circle_radius {_fmt_real(report.radius, full)}", file=out)
            print(f"bits {measure.bits}", file=out)
            print(f"samples {report.n_samples}", file=out)
            print(f"arc {report.arc}", file=out)
            print(f"method {report.method}", file=out)
            print(f"sup_lower_bound {_fmt_real(report.sup_value, full)}", file=out)
            print(f"witness {_fmt_complex(report.witness, full)}", file=out)
    return 0


def _parse_grid_text(text: str):
    text = text.strip()
    if not text:
        raise ConfigError("figure: empty --grid")
    is_range = ":" in text
    parts = text.split(":") if is_range else [p for p in text.split(",") if p.strip()]
    if is_range and len(parts) != 3:
        raise ConfigError("figure: range grids use START:STOP:STEP")
    try:
        numbers = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"figure: could not parse grid {text!r}") from None
    # The finite-number rule of ``main``, for the numbers inside --grid.
    if not all(math.isfinite(x) for x in numbers):
        raise ConfigError("figure: --grid values must be finite")
    if is_range:
        start, stop, step = numbers
        if step <= 0 or stop < start:
            raise ConfigError("figure: need STEP > 0 and STOP >= START")
        values = []
        index = 0
        while True:
            value = start + index * step
            if value > stop + 1e-9:
                break
            values.append(round(value, 12))
            if len(values) > _MAX_GRID_POINTS:
                raise ConfigError(f"figure: grid has more than {_MAX_GRID_POINTS} values")
            index += 1
        return values
    return numbers


def _cmd_figure(args) -> int:
    grid = _parse_grid_text(args.grid) if args.grid else default_grid()
    table = run_figure(
        grid,
        b=args.b,
        n_samples=args.samples,
        bits_override=_resolve_bits(args),
        progress=lambda line: print(line, file=sys.stderr),
    )
    full = args.full_precision

    def c1(m) -> str:
        return f"{_fmt_real(m.c1, full)} binding_a {m.binding_a!r} floored {m.floored}"

    rate = "slope {0.slope:.6f} intercept {0.intercept:.6f} rows {0.n_rows}".format
    with _out_stream(args.out) as out:
        for row in table.rows:
            print(
                f"a {row.a!r} k {row.k} bits {row.bits} "
                f"err_trunc {_fmt_real(row.err_trunc, full)} "
                f"err_quad {_fmt_real(row.err_quad, full)}",
                file=out,
            )
        fits = {}
        # Built per call, so a fit rebound in this module (test, tracer) is used.
        for label, fit, describe in (
            ("fit_trunc", fit_truncation_rate, rate),
            ("fit_quad", fit_quadrature_rate, rate),
            ("fit_c1", fit_c1, c1),
        ):
            try:
                fits[label] = fit(table)
            except ConfigError as exc:
                print(f"{label} unavailable: {exc}", file=out)
            else:
                print(f"{label} {describe(fits[label])}", file=out)
        model = fits.get("fit_c1")
        if model is not None:
            for row in table.rows:
                report = validate_tail_bound(
                    row.a,
                    table.b,
                    c1_fit=model.c1,
                    err_quad=row.err_quad,
                    bits=min(row.bits, 512),
                )
                flags = ",".join(
                    f"{name}={value}" for name, value in sorted(report.checks.items())
                )
                print(f"tail_chain a {row.a!r} {flags}", file=out)
        emit_figure(
            table,
            csv_path=args.csv,
            svg_path=args.svg,
            manifest_path=args.manifest,
            model=model,
            trunc_fit=fits.get("fit_trunc"),
            quad_fit=fits.get("fit_quad"),
        )
    return 0


def _cmd_superflat(args) -> int:
    mixture = build_superflat(args.a, _resolve_bits(args))
    full = args.full_precision
    with _out_stream(args.out) as out:
        superflat_to_csv(mixture, out)
        if args.certify:
            certificate = flatness_certificate(mixture, n_samples=args.samples)
            # The certificate raises CertificateViolation unless it holds.
            print("# certificate_passed True", file=out)
            print(
                f"# boundary_deviation {_fmt_real(certificate.eps2, full)}",
                file=out,
            )
            print(
                f"# deviation_witness "
                f"{_fmt_complex(certificate.eps2_witness, full)}",
                file=out,
            )
            print(
                f"# boundary_deviation_ceiling "
                f"{_fmt_real(certificate.eps2_ceiling, full)}",
                file=out,
            )
            for index, bound in enumerate(certificate.derivative_bounds):
                order = index + 1
                line = f"# derivative {order} cauchy_bound {_fmt_real(bound, full)}"
                if index < len(certificate.direct_sups):
                    direct = certificate.direct_sups[index]
                    ratio = certificate.ratios[index]
                    line += (
                        f" direct_sup {_fmt_real(direct, full)}"
                        f" ratio {ratio:.6f}"
                    )
                print(line, file=out)
    return 0


def _cmd_verify(args) -> int:
    with _out_stream(args.out) as out, redirect_stdout(out):
        ok = checks.run_all(quick=args.quick)
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# parser assembly


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="gausdisk",
        description="Compactly supported stand-ins for the standard Gaussian: "
        "quadrature rules, transform error bounds on disks, and flatness "
        "certificates, all at configurable precision.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, precision=True, full_precision=True):
        """A subcommand with the shared options it reads."""
        p = sub.add_parser(name, help=help)
        if precision:
            p.add_argument(
                "--precision",
                default="auto",
                metavar="BITS",
                help="working precision in bits, or 'auto' for the built-in policy "
                f"(environment override: {_ENV_PRECISION})",
            )
        p.add_argument(
            "--config",
            default=None,
            metavar="PATH",
            help="key=value file of option defaults; options given here win",
        )
        if full_precision:
            p.add_argument(
                "--full-precision",
                action="store_true",
                help="print exact serialized values instead of 40 significant digits",
            )
        p.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help="write output to a file instead of stdout",
        )
        p.set_defaults(func=func)
        return p

    p_rule = command(
        "rule", _cmd_rule, "print a Gaussian quadrature rule as CSV", full_precision=False
    )
    group = p_rule.add_argument_group("rule selection")
    group.add_argument("--k", type=int, default=None, help="number of nodes")
    group.add_argument(
        "--a",
        type=float,
        default=None,
        help="support half-width; picks the smallest rule fitting inside",
    )

    p_transform = command(
        "transform",
        _cmd_transform,
        "evaluate a measure's exponential transform at given points",
    )
    p_transform.add_argument(
        "--measure", default="gauss", metavar="SPEC", help=_MEASURE_HELP
    )
    p_transform.add_argument(
        "--z",
        action="append",
        metavar="RE[,IM]",
        help="complex evaluation point (repeatable)",
    )
    p_transform.add_argument(
        "--t",
        action="append",
        metavar="T",
        help="real frequency, evaluated on the imaginary axis (repeatable)",
    )
    p_transform.add_argument(
        "--what",
        choices=("laplace", "error", "char"),
        default="error",
        help="which quantity to print (default: error against the Gaussian)",
    )

    p_supdisk = command(
        "supdisk",
        _cmd_supdisk,
        "certified lower bound for the transform error sup on a circle "
        "or vertical line",
    )
    p_supdisk.add_argument(
        "--measure", default="gauss", metavar="SPEC", help=_MEASURE_HELP
    )
    p_supdisk.add_argument(
        "--r",
        type=float,
        required=True,
        help="circle radius, or the real offset of the line with --line",
    )
    p_supdisk.add_argument(
        "--line",
        action="store_true",
        help="scan the vertical line Re z = R instead of the circle |z| = R",
    )
    p_supdisk.add_argument(
        "--samples", type=int, default=1024, help="seed points for the scan"
    )

    p_figure = command(
        "figure",
        _cmd_figure,
        "run the two error curves over a grid of support half-widths "
        "and emit CSV/SVG/manifest artifacts",
    )
    p_figure.add_argument(
        "--grid",
        default=None,
        metavar="START:STOP:STEP|A,B,...",
        help="support half-widths to measure (default 4:12:0.5)",
    )
    p_figure.add_argument(
        "--b", type=float, default=1.0, help="disk radius for the error sups"
    )
    p_figure.add_argument(
        "--samples",
        type=int,
        default=256,
        help="recorded in the manifest only: both families' circle sups are "
        "exact on the real axis, so no boundary scan runs",
    )
    p_figure.add_argument("--csv", default=None, metavar="PATH")
    p_figure.add_argument("--svg", default=None, metavar="PATH")
    p_figure.add_argument("--manifest", default=None, metavar="PATH")

    p_superflat = command(
        "superflat",
        _cmd_superflat,
        "build the tilted mixture whose transform is flat on a disk",
    )
    p_superflat.add_argument(
        "--a", type=float, required=True, help="support half-width (>= 4)"
    )
    p_superflat.add_argument(
        "--certify",
        action="store_true",
        help="append the flatness certificate to the output",
    )
    p_superflat.add_argument(
        "--samples", type=int, default=512, help="seed points per certificate scan"
    )

    p_verify = command(
        "verify",
        _cmd_verify,
        "run the internal cross-check suite",
        precision=False,
        full_precision=False,
    )
    p_verify.add_argument(
        "--quick",
        action="store_true",
        help="smaller parameter ranges, same set of checks",
    )

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, commands, args.command)
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        # The number rules every subcommand shares; ranges are the library's.
        for name, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{args.command}: --{name} must be finite")
        samples = getattr(args, "samples", 8)
        if samples < 8:
            raise ConfigError(f"{args.command}: --samples must be at least 8")
        if samples > _MAX_GRID_POINTS:
            raise ConfigError(f"{args.command}: --samples must be at most {_MAX_GRID_POINTS}")
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathInvariantError as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
