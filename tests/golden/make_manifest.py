"""Build tests/golden/manifest.json, the digest of every exact output of a
fixed matrix of `fracrat` command lines.

Each command runs in process through `fracrat.cli.main`, in order, in one
working directory, so a `ladder` reads the tf-document that the `realize`
before it wrote. The manifest maps each command line to its exit code and
the sha256 of its stdout, of its stderr and of each file it writes (`-o`,
`--netlist`). It holds only outputs that are exact on every platform:
tf-, symbolic- and ladder-documents, netlists and fracrat's own error
messages. Successful `bode` and `compare` runs write CSVs and fit reports
through numpy and libm, argparse's messages change between Python
versions, and a refusal that quotes an OS error (a file that cannot be
read or written) ends in the platform's strerror text, so none of these is
in the matrix; tests/test_cli.py pins such a line with os.strerror.

A command that raises instead of returning an exit code is left out, and
so are the commands of its step after it; the script prints each one.
These are the open defects of the CLI (a ladder rung past the int-to-str
digit cap, for one), and a fix adds them.

After a change that is meant to change an output, run from the repository
root

    PYTHONPATH=src python tests/golden/make_manifest.py

and name each command whose line in the manifest changed. The replay is
tests/test_golden_manifest.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

from fracrat.cli import main

MANIFEST = Path(__file__).resolve().parent / "manifest.json"

NUMERIC_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 20, 40, 60, 120)
SMALL_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8)
# every family symbolic in all its parameters at two-digit exponents; the
# order-20 FOPID document is 2 MB
LARGE_SYMBOLIC_ORDERS = (12, 20)
_SIGNS = ("integrator", "differentiator")
_BANDS = ("low", "high")


def _realizations():
    """(flags, orders, ladder) of every numeric realization: every family
    at both bands and signs where it has them, --T, zero gains, integer
    exponents, the lead-lag at alpha = 0 and x = 1. The ladder of each
    realization follows it, up to order `ladder` where that is set: past
    order 20 those ladders spend seconds on big ints before they hit the
    int-to-str digit cap."""
    for lam in ("1/2", "37/100", "1"):
        for band in _BANDS:
            for sign in _SIGNS:
                flags = ("--controller", "diffint", "--lambda", lam, "--range", band, "--sign", sign)
                yield flags, NUMERIC_ORDERS, 20 if (lam, band) == ("37/100", "high") else None
    for T in ("1/10", "7/3", "1"):
        for sign in _SIGNS:
            flags = ("--controller", "diffint", "--lambda", "1/2", "--range", "high", "--T", T)
            yield flags + ("--sign", sign), SMALL_ORDERS, None
    yield ("--controller", "diffint", "--lambda", "1/2"), SMALL_ORDERS, None
    for band in _BANDS:
        for lam, mu in (("1/2", "1/2"), ("1/2", "3/2"), ("1", "1"), ("3/2", "1")):
            flags = ("--controller", "fopid", "--kp", "1", "--ki", "1/2", "--kd", "1/4")
            orders = NUMERIC_ORDERS if (lam, mu) == ("1/2", "1/2") else SMALL_ORDERS
            yield flags + ("--lambda", lam, "--mu", mu, "--range", band), orders, 60 if band == "low" else 20
        for kp, ki, kd in (("0", "1/2", "1/4"), ("1", "0", "1/4"), ("1", "1/2", "0"), ("0", "0", "1")):
            flags = ("--controller", "fopid", "--kp", kp, "--ki", ki, "--kd", kd)
            yield flags + ("--lambda", "1/2", "--mu", "1/2", "--range", band), SMALL_ORDERS, None
    for mu in ("1/2", "13/10", "1", "3/2"):
        orders = NUMERIC_ORDERS if mu == "1/2" else SMALL_ORDERS
        yield ("--controller", "fopd", "--kp", "1", "--kd", "1/2", "--mu", mu), orders, None
    yield ("--controller", "fopd", "--kp", "3", "--kd", "7/2", "--mu", "2/3"), SMALL_ORDERS, None
    for x, alpha in (("1/20", "1/2"), ("1/2", "1/3"), ("1/20", "1"), ("1/2", "0"), ("1", "1/2")):
        flags = ("--controller", "leadlag", "--kc", "2", "--lambda", "1/10", "--x", x, "--alpha", alpha)
        orders = NUMERIC_ORDERS if (x, alpha) == ("1/20", "1/2") else SMALL_ORDERS
        yield flags, orders, 20


def _float_realizations():
    """Flags of the realizations also emitted with --float."""
    for band in _BANDS:
        for sign in _SIGNS:
            yield ("--controller", "diffint", "--lambda", "1/2", "--range", band, "--sign", sign)
    yield ("--controller", "diffint", "--lambda", "37/100", "--range", "high", "--T", "1/10")
    yield ("--controller", "fopid", "--kp", "1", "--ki", "1/2", "--kd", "1/4", "--lambda", "1/2", "--mu", "1/2")
    yield ("--controller", "fopd", "--kp", "1", "--kd", "1/2", "--mu", "1/2")
    yield ("--controller", "leadlag", "--kc", "2", "--lambda", "1/10", "--x", "1/20", "--alpha", "1/2")


def _symbolic():
    """Flags of every symbolic realization, each at SMALL_ORDERS."""
    for band in _BANDS:
        for sign in _SIGNS:
            yield ("--controller", "diffint", "--range", band, "--sign", sign)
    yield ("--controller", "diffint", "--range", "high", "--T", "1/10")
    yield ("--controller", "diffint", "--lambda", "1/2")
    for band in _BANDS:
        yield ("--controller", "fopid", "--range", band)
        yield ("--controller", "fopid", "--kp", "1", "--ki", "1/2", "--kd", "1/4", "--range", band)
        yield ("--controller", "fopid", "--lambda", "1", "--mu", "1/2", "--range", band)
        yield ("--controller", "fopid", "--ki", "0", "--range", band)
    yield ("--controller", "fopd",)
    yield ("--controller", "fopd", "--kp", "1", "--kd", "1/2")
    yield ("--controller", "fopd", "--mu", "13/10")
    yield ("--controller", "fopd", "--mu", "1")
    yield ("--controller", "leadlag",)
    yield ("--controller", "leadlag", "--kc", "2", "--lambda", "1/10", "--x", "1/20")
    yield ("--controller", "leadlag", "--alpha", "1")
    yield ("--controller", "leadlag", "--alpha", "0")
    yield ("--controller", "leadlag", "--x", "1")
    yield ("--controller", "leadlag", "--kc", "2", "--x", "1/20", "--alpha", "1/2")


# refusals by fracrat itself (exit 2, and 3 for the zero TF's ladder), each
# one command line
_ERRORS = (
    "realize --controller diffint --lambda 3/2 --order 3",
    "realize --controller diffint --lambda 0 --order 3",
    "realize --controller diffint --lambda abc --order 3",
    "realize --controller diffint --lambda 1/0 --order 3",
    "realize --controller diffint --lambda 1/2 --order 0",
    "realize --controller diffint --order 3",
    "realize --controller diffint --lambda 1/2 --order 3 --T 2",
    "realize --controller diffint --lambda 1/2 --order 3 --range low --T 1",
    "realize --controller diffint --lambda 1/2 --order 3 --range high --T 0",
    "realize --controller diffint --lambda 1/2 --order 3 --range high --T=-1/2",
    "realize --controller diffint --lambda 1/2 --order 3 --kp 1",
    "realize --controller fopid --kp 1 --ki 1 --lambda 1/2 --mu 1/2 --order 3",
    "realize --controller fopid --kp -1 --ki 1 --kd 1 --lambda 1/2 --mu 1/2 --order 3",
    "realize --controller fopid --kp 1 --ki 1 --kd 1 --lambda 2 --mu 1/2 --order 3",
    "realize --controller fopid --kp 1 --ki 1 --kd 1 --lambda 1/2 --mu 1/2 --order 3 --sign differentiator",
    "realize --controller fopd --kp 0 --kd 1 --mu 1/2 --order 3",
    "realize --controller fopd --kp 1 --kd -1 --mu 1/2 --order 3",
    "realize --controller fopd --kp 1 --kd 1 --mu 2 --order 3",
    "realize --controller fopd --kp 1 --kd 1 --mu 1/2 --order 3 --range high",
    "realize --controller leadlag --kc 0 --lambda 1/10 --x 1/20 --alpha 1/2 --order 3",
    "realize --controller leadlag --kc 2 --lambda 0 --x 1/20 --alpha 1/2 --order 3",
    "realize --controller leadlag --kc 2 --lambda 1/10 --x 0 --alpha 1/2 --order 3",
    "realize --controller leadlag --kc 2 --lambda 1/10 --x 3/2 --alpha 1/2 --order 3",
    "realize --controller leadlag --kc 2 --lambda 1/10 --x 1/20 --alpha 2 --order 3",
    "symbolic --controller diffint --order 3 --T 1/10",
    "symbolic --controller fopid --order 0",
    "symbolic --controller leadlag --alpha 2 --order 3",
    "symbolic --controller fopd --mu 0 --order 3",
    "symbolic --controller fopd --order 3 --sign integrator",
    "compare --lambda 1/2 --order 3 --methods foo --fmin 1 --fmax 10",
    "compare --lambda 1/2 --order 3 --methods cfe-low,cfe-low --fmin 1 --fmax 10",
    "compare --lambda 1/2 --order 3 --methods , --fmin 1 --fmax 10",
    "compare --lambda 1/2 --order 3 --methods cfe-low --fmin 1 --fmax 10 --T 2",
    "compare --lambda 1/2 --order 3 --methods cfe-low --fmin 1 --fmax 10 --omega-b 5",
    "compare --lambda 1/2 --order 3 --methods cfe-low --fmin 10 --fmax 1",
    "compare --lambda 3/2 --order 3 --methods cfe-low --fmin 1 --fmax 10",
    "compare --lambda 1/2 --order 9 --methods carlson --fmin 1 --fmax 10",
    "compare --lambda 1/2 --order 1 --methods oustaloup --fmin 1 --fmax 100 --points-per-decade 1"
    " --omega-b 1e80 --omega-h 1e100",
    "compare --lambda 1/2 --order 3 --methods oustaloup --fmin 1 --fmax 10 --omega-b 1e-300",
    "compare --lambda 1/2 --order 10000 --methods oustaloup --fmin 1 --fmax 10",
    "bode --tf r001.json --fmin 1e-3 --fmax 1e3 --points-per-decade 100000000",
    "compare --lambda 1/2 --order 3 --methods cfe-low --fmin 1e-3 --fmax 1e3 --points-per-decade 1"
    + "0" * 400,
    "realize --controller diffint --lambda 1e9999999 --order 3",
    "ladder --tf exponent.json",
    "bode --tf exponent.json --fmin 1 --fmax 10",
    "realize --controller diffint --lambda 1e-40 --order 8 --float",
    "realize --controller diffint --lambda 1e-300 --order 2 --float",
    "realize --controller diffint --lambda 1e-4000 --order 2",
    "symbolic --controller diffint --range high --T 1e-4000 --order 2",
    "ladder --tf float-range.json --no-meta --netlist float-range.cir",
    "ladder --tf tiny-slope.json --no-meta --netlist tiny-slope.cir",
    "ladder --tf tiny-shunt.json --no-meta --netlist tiny-shunt.cir",
    "bode --tf bool-coeff.json --fmin 1 --fmax 10",
    "ladder --tf bool-coeff.json",
    "bode --tf bool-gain.json --fmin 1 --fmax 10",
    "ladder --tf bool-gain.json",
    "bode --tf list-label.json --fmin 1 --fmax 10",
    "ladder --tf list-label.json",
    "ladder --tf zero.json",
    "ladder --tf null-gain.json",
    "bode --tf null-gain.json --fmin 1 --fmax 10",
)

# documents that no command line writes, put in the working directory
# before the first command line runs
INPUTS = {
    "exponent.json": json.dumps({"format": "tf-document", "num": ["1e-9999999"], "den": ["1", "1"]}),
    # a netlist value past float range, and two that a float rounds to 0
    "float-range.json": json.dumps({"format": "tf-document", "num": ["1e400"], "den": ["1"]}),
    "tiny-slope.json": json.dumps({"format": "tf-document", "num": ["1e-400", "1"], "den": ["1"]}),
    "tiny-shunt.json": json.dumps({"format": "tf-document", "num": ["1"], "den": ["1e-400", "1"]}),
    # a JSON boolean where a number goes, and a gain label that is no string
    "bool-coeff.json": json.dumps({"format": "tf-document", "ring": "float", "num": [True], "den": ["1"]}),
    "bool-gain.json": json.dumps(
        {"format": "tf-document", "num": ["1"], "den": ["1", "1"], "gain": {"label": "g", "value": True}}
    ),
    "list-label.json": json.dumps(
        {"format": "tf-document", "num": ["1"], "den": ["1", "1"], "gain": {"label": ["x"], "value": "2"}}
    ),
    # the zero TF, which has no continued fraction, and a gain tag without a value
    "zero.json": json.dumps({"format": "tf-document", "num": ["0"], "den": ["1"]}),
    "null-gain.json": json.dumps(
        {"format": "tf-document", "num": ["1"], "den": ["1", "1"], "gain": {"label": "g", "value": None}}
    ),
}


def write_inputs() -> None:
    for name, text in INPUTS.items():
        Path(name).write_text(text, encoding="utf-8")


def commands() -> list:
    """The matrix as steps, each a tuple of command lines run in order."""
    steps = []
    index = 0

    def realized(flags, order, extra=(), ladder=True):
        nonlocal index
        index += 1
        doc = f"r{index:03d}.json"
        step = (shlex.join(("realize", *flags, "--order", str(order), *extra, "-o", doc)),)
        if ladder:
            step += (shlex.join(("ladder", "--tf", doc, "--no-meta", "--netlist", f"r{index:03d}.cir")),)
        steps.append(step)

    for flags, orders, ladder in _realizations():
        for order in orders:
            realized(flags, order, ladder=ladder is None or order <= ladder)
    for flags in _float_realizations():
        for order in (1, 3, 8):
            realized(flags, order, ("--float",))
    realized(("--controller", "diffint", "--lambda", "1/2"), 3, ("--no-meta",))
    # the FOPID with Ki = Kd and lambda = mu: the low band has no affine
    # ladder (exit 3), the high band has one
    for band in _BANDS:
        flags = ("--controller", "fopid", "--kp", "1", "--ki", "1", "--kd", "1", "--lambda", "1/2", "--mu", "1/2")
        for order in SMALL_ORDERS:
            realized(flags + ("--range", band), order)
    for flags in _symbolic():
        for order in SMALL_ORDERS:
            steps.append((shlex.join(("symbolic", *flags, "--order", str(order))),))
    for controller in ("diffint", "fopd", "fopid", "leadlag"):
        for order in LARGE_SYMBOLIC_ORDERS:
            steps.append((f"symbolic --controller {controller} --order {order}",))
    steps.append((
        "symbolic --controller fopid --order 2 --no-meta -o s001.json",
        "ladder --tf s001.json",
        "bode --tf s001.json --fmin 1 --fmax 10",
    ))
    steps.extend((line,) for line in _ERRORS)
    return steps


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _written(argv: list) -> list:
    """The files a command line names as outputs."""
    return [value for flag, value in zip(argv, argv[1:]) if flag in ("-o", "--netlist")]


def run(line: str) -> dict:
    """Run one command line through cli.main in the working directory, and
    digest what it printed and wrote."""
    argv = shlex.split(line)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {path: _sha(Path(path).read_bytes()) for path in _written(argv) if Path(path).exists()}
    return {
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


def build() -> dict:
    """Run every step in a new temporary directory; the manifest in run order."""
    manifest: dict = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            write_inputs()
            for step in commands():
                for line in step:
                    if line in manifest:
                        raise ValueError(f"command listed twice: {line}")
                    try:
                        manifest[line] = run(line)
                    except Exception as exc:  # an open defect: leave the rest of the step out
                        print(f"left out ({type(exc).__name__}): {line}", file=sys.stderr)
                        break
        finally:
            os.chdir(home)
    return manifest


def dumps(manifest: dict) -> str:
    """One command per line, so a diff of the manifest names the commands."""
    lines = [f"{json.dumps(line)}: {json.dumps(entry, sort_keys=True)}" for line, entry in manifest.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


if __name__ == "__main__":
    manifest = build()
    MANIFEST.write_text(dumps(manifest), encoding="utf-8")
    print(f"{len(manifest)} commands -> {MANIFEST}")
