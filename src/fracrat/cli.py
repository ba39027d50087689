"""Command-line front end: realize controllers, print symbolic forms,
synthesize ladders, sweep Bode responses, compare approximation methods.

All output is deterministic: identical invocations produce byte-identical
files. Data payloads carry no timestamps; run provenance lives in one
suppressible place (the "meta" key of JSON documents, one leading "# "
comment line in CSV) so payloads diff cleanly.

The interchange format for numeric transfer functions is the tf-document:
JSON with descending-power coefficient strings, the coprime integers of
make_tf in the rational ring and 15-significant-digit decimals in the
float ring. The reader takes exact "p/q" and decimal text in the rational
ring as well, and reads a plain integer without Fraction's regex. A
document produced here parses back and re-emits byte for byte. The
symbolic command emits a separate symbolic-tf document whose coefficients
are polynomial strings in the tuning parameters; that format is for
reading, not for feeding back in.

Exit codes: 0 success, 2 validation error (a stdout that cannot be written
included), 3 degenerate mathematics.

Each command's options are one entry of the _COMMANDS table, as the
arguments of their add_argument calls, and both the command's own parser
and the full tree add them through one helper.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import os
import shutil
import sys
from fractions import Fraction
from functools import partial
from itertools import repeat

from . import polys
from .approx import GainTag, TransferFunction, make_tf
from .baselines import BaselineConfig, carlson, modified_oustaloup, oustaloup
from .controllers import (
    FOPID,
    Differintegrator,
    FOPDBracket,
    LeadLag,
    _echo,
    _parse_rat,
    _rat,
    realize_differintegrator,
    realize_fopd_bracket,
    realize_fopid,
    realize_leadlag,
)
from .errors import FracratError, ValidationError
from .exact import ParamPoly, _poly_str
from .freqresp import PHASE_TOL_DEG, _tf_gain_value, bode, fit_report, ideal_response, log_grid
from .ladder import export_netlist, map_elements, synthesize_ladder

# (dest, flag, help) of the controllers' rational parameters: the parser
# flags, the spec values and the meta keys all come from this one table
_RAT_FLAGS = (
    ("lam", "--lambda", "fractional order, e.g. 1/2 or 0.5"),
    ("mu", "--mu", "fractional differential order"),
    ("alpha", "--alpha", "lead-lag exponent in [0, 1]"),
    ("x", "--x", "lead-lag pole/zero ratio in (0, 1]"),
    ("kp", "--kp", "proportional gain"),
    ("ki", "--ki", "integral gain"),
    ("kd", "--kd", "derivative gain"),
    ("kc", "--kc", "compensator gain"),
    ("T", "--T", "time constant of the high-range form (default 1)"),
)

_CONTROLLER_PARAMS = {
    "diffint": ("lam", "T"),
    "fopid": ("kp", "ki", "kd", "lam", "mu"),
    "fopd": ("kp", "kd", "mu"),
    "leadlag": ("kc", "lam", "x", "alpha"),
}

# controllers whose expansion picks a frequency range
_RANGED = ("diffint", "fopid")

_METHODS = ("cfe-low", "cfe-high", "oustaloup", "mod-oustaloup", "carlson")

# compare flags that only some methods read: dest -> (flag, those methods)
_METHOD_FLAGS = {
    "T": ("--T", ("cfe-high",)),
    "omega_b": ("--omega-b", ("oustaloup", "mod-oustaloup")),
    "omega_h": ("--omega-h", ("oustaloup", "mod-oustaloup")),
}


def _coeff_str(c, monomials: dict) -> str:
    """A document coefficient as text; a ParamPoly's monomials come from
    the document's one table (exact._poly_str)."""
    if isinstance(c, float):
        return f"{c:.15g}"
    try:
        return _poly_str(c, monomials) if isinstance(c, ParamPoly) else str(c)
    except ValueError:  # an int past the digit cap, which parse_tf_document refuses too
        raise ValidationError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} digits, the"
            " int-to-str cap; PYTHONINTMAXSTRDIGITS=0 lifts it"
        ) from None


def _json_document(doc: dict, meta: dict | None) -> str:
    """The one ending of every JSON document: meta last, unless omitted."""
    if meta is not None:
        doc["meta"] = meta
    return json.dumps(doc, indent=2) + "\n"


def _tf_json(head: dict, tf: TransferFunction, num, den, meta: dict | None) -> str:
    """Both TF documents: the head's keys, num and den in descending powers
    of s, the gain and the notes, then meta."""
    gain = tf.gain
    text = partial(_coeff_str, monomials={})  # one monomial table for the whole document
    doc = {
        **head,
        "num": [text(c) for c in reversed(num)],
        "den": [text(c) for c in reversed(den)],
        "gain": None if gain is None else {"label": gain.label, "value": gain.value},
        "notes": list(tf.notes),
    }
    return _json_document(doc, meta)


def emit_tf_document(
    tf: TransferFunction, meta: dict | None = None, as_float: bool = False
) -> str:
    """Serialize a numeric TF as tf-document JSON.

    Coefficients are listed in descending powers of s: exact strings in
    the rational ring ("p/q", or an integer, as every coefficient of a
    make_tf result is), 15-significant-digit decimals in the
    float ring. as_float converts an exact TF to the float display form
    (a one-way step; the exact strings are the canonical ones).
    """
    if tf.ring == "symbolic":
        raise ValidationError("symbolic coefficients do not fit a tf-document")
    num, den, ring = tf.num, tf.den, tf.ring
    if as_float and ring == "rational":
        try:
            num = tuple(float(c) for c in num)
            den = tuple(float(c) for c in den)
        except OverflowError:
            raise ValidationError(
                "a coefficient is past float range; leave out --float for the exact document"
            ) from None
        ring = "float"
    return _tf_json({"format": "tf-document", "variable": "s", "ring": ring}, tf, num, den, meta)


def parse_tf_document(text: str) -> tuple[TransferFunction, dict | None]:
    """Parse tf-document JSON back into a TransferFunction plus its meta.

    Accepts only the numeric rings; a symbolic-tf document does not come
    back (one-way by design). Coefficients re-normalize through make_tf,
    which is the identity on documents this tool emitted. A float-ring
    coefficient or gain value must be a finite JSON number or a string (not
    a boolean), the gain label a string, and notes absent or a list of
    strings.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and an integer literal past the
        # int-to-str digit cap; RecursionError, nesting past the stack
        raise ValidationError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != "tf-document":
        raise ValidationError('expected a JSON object with format "tf-document"')
    if doc.get("variable", "s") != "s":
        raise ValidationError("only the variable s is supported")
    ring = doc.get("ring", "rational")
    if ring not in ("rational", "float"):
        raise ValidationError(f"cannot parse coefficients in ring {_echo(ring)}")

    def finite(text_value, what: str) -> float:
        try:
            if type(text_value) not in (str, int, float):
                raise TypeError  # float() would read a JSON true as 1.0
            value = float(text_value)
        except (ValueError, TypeError, OverflowError):
            raise ValidationError(f"bad {what} {_echo(text_value)}") from None
        if not math.isfinite(value):
            raise ValidationError(f"non-finite {what} {_echo(text_value)}")
        return value

    def coeff(text_value):
        if ring == "float":
            return finite(text_value, "coefficient")
        try:
            return _parse_rat(str(text_value), "coefficient")
        except (ValueError, ZeroDivisionError, TypeError):
            raise ValidationError(f"bad coefficient {_echo(text_value)}") from None

    for side in ("num", "den"):
        if side not in doc or not isinstance(doc[side], list) or not doc[side]:
            raise ValidationError(f"tf-document needs a non-empty {side!r} list")
    num = tuple(coeff(c) for c in reversed(doc["num"]))
    den = tuple(coeff(c) for c in reversed(doc["den"]))
    gain = doc.get("gain")
    tag = None
    if gain is not None:
        if not isinstance(gain, dict) or not isinstance(gain.get("label"), str):
            raise ValidationError("gain must be null or carry a string label")
        value = gain.get("value")
        tag = GainTag(gain["label"], None if value is None else finite(value, "gain value"))
    notes = doc.get("notes", [])
    if not isinstance(notes, list) or not all(isinstance(n, str) for n in notes):
        raise ValidationError("notes must be a list of strings")
    return make_tf(num, den, gain=tag, notes=tuple(notes)), doc.get("meta")


def emit_symbolic_document(tf: TransferFunction, meta: dict | None = None) -> str:
    """Serialize a TF with the tuning parameters left symbolic.

    Coefficients are polynomial strings in descending powers of s.
    """
    return _tf_json({"format": "symbolic-tf", "variable": "s"}, tf, tf.num, tf.den, meta)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read {path} as UTF-8") from None


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it, so that a failure raises here.

    Unbuffered (`python -u`), stdout's text layer sits on the raw file and
    drops what one raw write leaves unwritten, as when a pipe's reader
    leaves mid-write; the rest is written here, so that failure raises too.
    A non-blocking stdout that would block raises BlockingIOError rather
    than being retried until a reader drains it.
    """
    out = sys.stdout
    raw = getattr(out, "buffer", None)
    if isinstance(raw, io.RawIOBase):
        data = memoryview(text.encode(out.encoding, out.errors))
        while data:
            written = raw.write(data)
            if written is None:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            data = data[written:]
    else:
        out.write(text)
    out.flush()


def _write_text(path: str | None, text: str):
    if path is None:
        try:
            _write_stdout(text)
        except OSError as exc:
            # the interpreter flushes stdout again at exit; with fd 1 on the
            # null device that flush cannot fail a second time
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ValidationError(f"cannot write to stdout: {exc}") from None
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _write_csv(path: str | None, meta: dict | None, grid, sweeps) -> None:
    """One sweep CSV: the optional "# " meta line, the header, then per
    grid point the frequency, the unit and the magnitude and phase of
    each (column prefix, sweep) pair. The cells are floats, so repr is
    the shortest string that reads back to the same value."""
    lines = [] if meta is None else ["# " + json.dumps(meta, separators=(",", ":"))]
    header = ["freq", grid.unit]
    cells = [map(repr, grid.values), repeat(grid.unit)]
    for prefix, sweep in sweeps:
        header += (f"{prefix}mag_db", f"{prefix}phase_deg")
        cells += (map(repr, sweep.mag_db), map(repr, sweep.phase_deg))
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*cells)))
    _write_text(path, "\n".join(lines) + "\n")


def _sweep_meta(head: dict, args) -> dict:
    return {
        **head,
        "fmin": args.fmin,
        "fmax": args.fmax,
        "points_per_decade": args.points_per_decade,
        "unit": args.unit,
    }


def _exact_tf(tf: TransferFunction) -> TransferFunction:
    """Exact-coefficient copy of a parsed tf-document for synthesis: float
    coefficients convert binary-exactly, a numeric gain tag folds into the
    numerator."""
    num, den = tf.num, tf.den
    if tf.ring == "float":
        num = tuple(Fraction(c) for c in num)
        den = tuple(Fraction(c) for c in den)
    if tf.gain is not None:
        num = polys.scale(num, Fraction(_tf_gain_value(tf)))
    return make_tf(num, den)


def _build_controller(args, numeric: bool) -> TransferFunction:
    controller = args.controller
    params = _CONTROLLER_PARAMS[controller]
    values: dict = {}
    for name, flag, _ in _RAT_FLAGS:
        raw = getattr(args, name)
        if raw is None:
            values[name] = None
        elif name not in params:
            raise ValidationError(f"{flag} is not a {controller} parameter")
        else:
            values[name] = _rat(raw, flag)
    if args.range is not None and controller not in _RANGED:
        raise ValidationError(f"--range does not apply to {controller}")
    if args.sign is not None and controller != "diffint":
        raise ValidationError("--sign only applies to diffint")
    if values["T"] is not None and args.range != "high":
        raise ValidationError("--T only applies to --range high")
    if numeric:
        flags = {name: flag for name, flag, _ in _RAT_FLAGS}
        for name in params:
            if name != "T" and values[name] is None:
                raise ValidationError(f"{controller} needs {flags[name]}")
    order = args.order
    rng = args.range or "low"
    if controller == "diffint":
        T = Fraction(1) if values["T"] is None else values["T"]
        spec = Differintegrator(values["lam"], args.sign or "integrator", rng, T)
        return realize_differintegrator(spec, order)
    if controller == "fopid":
        spec = FOPID(values["kp"], values["ki"], values["kd"], values["lam"], values["mu"])
        return realize_fopid(spec, rng, order)
    if controller == "fopd":
        return realize_fopd_bracket(FOPDBracket(values["kp"], values["kd"], values["mu"]), order)
    return realize_leadlag(LeadLag(values["kc"], values["lam"], values["x"], values["alpha"]), order)


def _controller_meta(args) -> dict:
    meta: dict = {"command": args.command, "controller": args.controller, "order": args.order}
    for name, flag, _ in _RAT_FLAGS:
        raw = getattr(args, name)
        if raw is not None:
            meta[flag[2:]] = raw
    if args.range is not None:
        meta["range"] = args.range
    if args.sign is not None:
        meta["sign"] = args.sign
    return meta


def _run_realization(args) -> int:
    """realize writes the controller's numeric TF as a tf-document;
    symbolic keeps the omitted parameters symbolic in a symbolic-tf one."""
    numeric = args.command == "realize"
    tf = _build_controller(args, numeric)
    meta = None if args.no_meta else _controller_meta(args)
    if numeric:
        text = emit_tf_document(tf, meta=meta, as_float=args.as_float)
    else:
        text = emit_symbolic_document(tf, meta=meta)
    _write_text(args.output, text)
    return 0


def _run_ladder(args) -> int:
    tf, _ = parse_tf_document(_read_text(args.tf))
    net = synthesize_ladder(_exact_tf(tf))
    elements = [
        {
            "role": el.role,
            "position": el.position,
            "g": str(el.g),
            "h": str(el.h),
            "nic": el.g < 0 or el.h < 0,
        }
        for el in net.elements
    ]
    doc = {"format": "ladder", "variable": "s", "elements": elements}
    meta = None if args.no_meta else {"command": "ladder", "tf": args.tf}
    text = _json_document(doc, meta)
    # a netlist that cannot be printed leaves both outputs unwritten
    netlist = None if args.netlist is None else export_netlist(map_elements(net))
    _write_text(args.output, text)
    if netlist is not None:
        _write_text(args.netlist, netlist)
    return 0


def _run_bode(args) -> int:
    tf, _ = parse_tf_document(_read_text(args.tf))
    grid = log_grid(args.fmin, args.fmax, args.points_per_decade, args.unit)
    try:
        sweep = bode(tf, grid)
    except OverflowError:
        raise ValidationError(f"{args.tf} has a coefficient past float range") from None
    meta = None if args.no_meta else _sweep_meta({"command": "bode", "tf": args.tf}, args)
    _write_csv(args.output, meta, grid, [("", sweep)])
    return 0


def _compare_tf(method: str, lam: Fraction, args, grid) -> TransferFunction:
    """One integrator approximation of s^(-lam) per requested method.

    --order is the [n/n] order for the expansion methods, the recursion
    depth N for the two recursive baselines (orders 2N+1 and 2N+3) and
    the iteration count for the fixed-point method. The recursive
    baselines' band defaults to the grid's ends in rad/s.
    """
    if method == "cfe-low":
        return realize_differintegrator(Differintegrator(lam), args.order)
    if method == "cfe-high":
        T = Fraction(1) if args.T is None else _rat(args.T, "--T")
        spec = Differintegrator(lam, freq_range="high", T=T)
        return realize_differintegrator(spec, args.order)
    if method == "carlson":
        return carlson(lam, args.order).reciprocal()
    omega = grid.omega()
    omega_b = args.omega_b if args.omega_b is not None else omega[0]
    omega_h = args.omega_h if args.omega_h is not None else omega[-1]
    cfg = BaselineConfig(lam, omega_b, omega_h, args.order)
    core = oustaloup(cfg) if method == "oustaloup" else modified_oustaloup(cfg)
    return core.reciprocal()


def _run_compare(args) -> int:
    lam = _rat(args.lam, "--lambda")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValidationError("--methods lists no methods")
    for m in methods:
        if m not in _METHODS:
            raise ValidationError(f"unknown method {_echo(m)}; choose from {', '.join(_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ValidationError("--methods lists a method twice")
    for key, (flag, readers) in _METHOD_FLAGS.items():
        if getattr(args, key) is not None and not set(readers) & set(methods):
            raise ValidationError(f"{flag} only applies to {' or '.join(readers)}")
    grid = log_grid(args.fmin, args.fmax, args.points_per_decade, args.unit)
    ideal = ideal_response(Differintegrator(lam), grid)
    sweeps = {m: bode(_compare_tf(m, lam, args, grid), grid) for m in methods}

    meta = None
    if not args.no_meta:
        meta = _sweep_meta(
            {"command": "compare", "lambda": args.lam, "order": args.order, "methods": args.methods},
            args,
        )
        for key in _METHOD_FLAGS:
            if getattr(args, key) is not None:
                meta[key] = getattr(args, key)
    columns = [("ideal_", ideal)]
    columns += [(m.replace("-", "_") + "_", sweeps[m]) for m in methods]
    _write_csv(args.output, meta, grid, columns)

    if args.report is not None:
        band = (grid.values[0], grid.values[-1])
        doc = {
            "format": "fit-report",
            "unit": args.unit,
            "band": list(band),
            "phase_tol_deg": PHASE_TOL_DEG,
            "methods": {m: vars(fit_report(sweeps[m], ideal, band)) for m in methods},
        }
        _write_text(args.report, _json_document(doc, meta))
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse error channel routed through the package's validation
    error so bad flags exit 2 like every other precondition failure.

    argparse builds a help formatter for every flag it adds, and each one
    would read the terminal width; the parser reads it once and hands every
    formatter argparse's own default, the width less 2, so the wrapping is
    the same. Help printed to stdout goes through the command's own stdout
    write, so a stdout that cannot take it exits 2 like a document would.
    """

    def __init__(self, **kwargs):
        width = shutil.get_terminal_size().columns - 2
        super().__init__(formatter_class=partial(argparse.HelpFormatter, width=width), **kwargs)

    def print_help(self, file=None):
        if file is None:
            _write_text(None, self.format_help())
        else:
            super().print_help(file)

    def error(self, message):
        raise ValidationError(message)


def _option(*flags, **keywords) -> tuple:
    """One command-line option: the arguments of its add_argument call."""
    return flags, keywords


_CONTROLLER_OPTIONS = (
    _option("--controller", required=True, choices=sorted(_CONTROLLER_PARAMS), help="controller family"),
    _option("--order", required=True, type=int, help="order n of the [n/n] approximant"),
    *(_option(flag, dest=name, metavar="RAT", help=text) for name, flag, text in _RAT_FLAGS),
    _option("--range", choices=("low", "high"), help="expansion band (default low)"),
    _option("--sign", choices=("integrator", "differentiator"),
            help="s^-lambda or s^+lambda (default integrator)"),
)
_OUTPUT_OPTIONS = (
    _option("-o", "--output", metavar="FILE", help="write here instead of stdout"),
    _option("--no-meta", dest="no_meta", action="store_true", help="omit run metadata"),
)
_SWEEP_OPTIONS = (
    _option("--fmin", required=True, type=float, help="sweep start frequency"),
    _option("--fmax", required=True, type=float, help="sweep end frequency"),
    _option("--points-per-decade", type=int, default=50, metavar="N"),
    _option("--unit", choices=("hz", "rad"), default="hz", help="frequency unit"),
)

# name -> (help, options, runner) of every subcommand, in the order the
# top-level help lists them; the options are added in the order listed
_COMMANDS = {
    "realize": (
        "numeric rational realization of one controller",
        (
            *_CONTROLLER_OPTIONS,
            _option("--float", dest="as_float", action="store_true",
                    help="display coefficients as 15-significant-digit decimals"),
            *_OUTPUT_OPTIONS,
        ),
        _run_realization,
    ),
    "symbolic": (
        "realization with omitted parameters kept symbolic",
        _CONTROLLER_OPTIONS + _OUTPUT_OPTIONS,
        _run_realization,
    ),
    "ladder": (
        "domino-ladder synthesis of a tf-document",
        (
            _option("--tf", required=True, metavar="FILE", help="tf-document to expand"),
            _option("--netlist", metavar="FILE", help="also write a SPICE-dialect netlist here"),
            *_OUTPUT_OPTIONS,
        ),
        _run_ladder,
    ),
    "bode": (
        "frequency sweep of a tf-document as CSV",
        (
            _option("--tf", required=True, metavar="FILE", help="tf-document to sweep"),
            *_SWEEP_OPTIONS,
            *_OUTPUT_OPTIONS,
        ),
        _run_bode,
    ),
    "compare": (
        "sweep several integrator approximations side by side",
        (
            _option("--lambda", dest="lam", required=True, metavar="RAT", help="fractional order"),
            _option("--order", required=True, type=int,
                    help="[n/n] order; recursion depth N for the recursive baselines; iterations for carlson"),
            _option("--methods", required=True, help="comma-separated subset of " + ",".join(_METHODS)),
            *_SWEEP_OPTIONS,
            _option("--T", metavar="RAT", help="time constant for cfe-high (default 1)"),
            _option("--omega-b", type=float, metavar="W",
                    help="baseline fit-band low edge, rad/s (default: sweep start)"),
            _option("--omega-h", type=float, metavar="W",
                    help="baseline fit-band high edge, rad/s (default: sweep end)"),
            _option("--report", metavar="FILE", help="write a fit-report JSON here"),
            *_OUTPUT_OPTIONS,
        ),
        _run_compare,
    ),
}


def _command_parser(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """parser, given the command's options and its defaults: the command
    name and its runner."""
    _, options, run = _COMMANDS[command]
    parser.set_defaults(run=run, command=command)
    for flags, keywords in options:
        parser.add_argument(*flags, **keywords)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A new parser: with no command, the full tree that reads the command
    name first; with one, a flat parser of that command's flags alone.

    The flat parser is the full tree's subparser for the command on its
    own: named `fracrat <command>`, it parses the flags after the command
    name to the same namespace (`command` and `run` are its defaults), help
    text and errors, and builds no top-level parser or subparsers action.
    """
    if command is not None:
        return _command_parser(_Parser(prog=f"fracrat {command}"), command)
    parser = _Parser(
        prog="fracrat",
        description="Rational approximations of fractional-order operators and controllers.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (text, _, _) in _COMMANDS.items():
        _command_parser(sub.add_parser(name, help=text), name)
    return parser


def main(argv=None) -> int:
    """Run one fracrat command and return its exit code: 2 for a
    ValidationError, 3 for any other FracratError.

    argv defaults to sys.argv[1:]. Each call parses through a new parser.
    When the first argument names a command, the flat parser of that
    command parses the rest; otherwise the full tree parses all of argv,
    so the top-level help and the missing- and unknown-command errors list
    every command.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser, argv = build_parser(argv[0]), argv[1:]
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FracratError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
