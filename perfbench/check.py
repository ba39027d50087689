"""Reference outputs recorded at a fixed commit, and the check of each
timed command against them.

Documents (tf-, symbolic-, ladder-documents and netlists) must keep their
bytes, compared by SHA-256. CSV sweeps and fit reports must keep every text
field and agree within REL_TOL at every number whose reference is finite,
so a later fix for non-finite sweep points still passes. A command whose
reference is an exception (a known defect) is a known defect when it raises
that exception again with the same message, and passes only when it exits 0
with outputs that check out: a ladder must fold back exactly to its input
with a netlist to match, a compare must reproduce the compare the seed
commit gives over the methods it can compute. Any other exit, exception or
missing output fails.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import REPORT, SWEEP

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# |value - reference| <= REL_TOL * max(1, |reference|). Loose next to float64
# round-off on these sweeps (below 1e-10 dB up to order 40), tight next to any
# change in the approximant; the stored float32 references are good to 6e-8.
REL_TOL = 1e-6

OK, KNOWN_DEFECT, FAILED = "ok", "known-defect", "failed"


def digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def array_key(path: str) -> str:
    return path.replace("/", "|")


class Reference:
    """The recorded outcome of every command of one workload."""

    def __init__(self, commands: dict, arrays):
        self.commands = commands
        self.arrays = arrays

    @classmethod
    def load(cls, workload: str) -> "Reference":
        doc = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        with np.load(REFERENCE_DIR / f"{workload}.npz") as npz:
            arrays = {key: npz[key] for key in npz.files}
        return cls(doc["commands"], arrays)

    def check(self, cmd, exit_code, raised: str | None) -> tuple[str, str]:
        """Classify one finished command as OK, KNOWN_DEFECT or FAILED.

        raised is "<type>: <message>" of an exception the CLI let through."""
        ref = self.commands.get(cmd.id)
        if ref is None:
            return FAILED, "no reference recorded"
        if "raises" in ref:
            if raised == ref["raises"]:
                return KNOWN_DEFECT, "raised as recorded"
            if raised is not None:
                return FAILED, f"raised {raised}"
            if exit_code != 0:
                return FAILED, f"exit {exit_code}; a fixed known defect must exit 0"
            problem = self.fixed_defect_problem(cmd, ref)
            return (FAILED, problem) if problem else (OK, "known defect fixed")
        if raised is not None:
            return FAILED, f"raised {raised}"
        if exit_code != ref["exit"]:
            return FAILED, f"exit {exit_code}, reference {ref['exit']}"
        return self.outputs_problem(cmd, ref["outputs"]) or (OK, "")

    def outputs_problem(self, cmd, outputs: dict) -> tuple[str, str] | None:
        for path, kind in cmd.outputs:
            if not Path(path).is_file():
                return FAILED, f"{path} not written"
            want = outputs[path]
            if digest(path) == want["sha256"]:
                continue
            text = Path(path).read_text()
            if kind == SWEEP and sweep_matches(text, want["head"], self.arrays[array_key(path)]):
                continue
            if kind == REPORT and numbers_match(load_json(text), want["report"]):
                continue
            return FAILED, f"{path} differs from the reference"
        return None

    def fixed_defect_problem(self, cmd, ref) -> str | None:
        """Why the outputs of a known defect that now exits 0 are wrong, or
        None when they check out."""
        for path, _ in cmd.outputs:
            if not Path(path).is_file():
                return f"{path} not written"
        if cmd.sub == "ladder":
            return ladder_problem(cmd)
        if cmd.recorded_methods is not None:
            return self.compare_problem(cmd, ref["recorded"])
        return "no check of a fixed output recorded"

    def compare_problem(self, cmd, recorded: dict) -> str | None:
        """A fixed compare must give the recorded methods' columns and
        report entries within tolerance, plus columns and entries of the
        same shape for the methods the seed commit could not compute."""
        methods = cmd.argv[cmd.argv.index("--methods") + 1]
        extra = [m for m in methods.split(",") if m not in cmd.recorded_methods.split(",")]
        for path, kind in cmd.outputs:
            want = recorded[path]
            text = Path(path).read_text()
            if kind == SWEEP:
                meta = json.loads(want["head"][0][2:])
                meta["methods"] = methods
                columns = [f"{m.replace('-', '_')}_{q}" for m in extra for q in ("mag_db", "phase_deg")]
                head = ["# " + json.dumps(meta, separators=(",", ":")), ",".join([want["head"][1]] + columns)]
                if not sweep_matches(text, head, self.arrays[array_key(path)], len(columns)):
                    return f"{path} differs from the recorded methods' sweep"
            elif kind == REPORT:
                value, report = load_json(text), copy.deepcopy(want["report"])
                report["meta"]["methods"] = methods
                entries = value.get("methods") if isinstance(value, dict) else None
                if not isinstance(entries, dict) or entries.keys() != report["methods"].keys() | set(extra):
                    return f"{path} does not report every method"
                shape = next(iter(report["methods"].values()))
                if any(not same_shape(entries[m], shape) for m in extra):
                    return f"{path} reports {extra} in another shape"
                report["methods"].update({m: entries[m] for m in extra})
                if not numbers_match(value, report):
                    return f"{path} differs from the recorded methods' report"
        return None


def load_json(text: str):
    """The parsed document, or None when the text is not JSON."""
    try:
        return json.loads(text)
    except ValueError:
        return None


def parse_sweep(text: str, head_lines: int):
    """Split a CSV sweep into its leading lines, unit column and numbers."""
    lines = text.rstrip("\n").split("\n")
    rows = [line.split(",") for line in lines[head_lines:]]
    units = {row[1] for row in rows if len(row) > 1}
    numbers = np.array([[float(c) for c in row[:1] + row[2:]] for row in rows])
    return lines[:head_lines], units, numbers


def sweep_matches(text: str, head: list, ref: np.ndarray, extra_columns: int = 0) -> bool:
    """Same leading lines and unit, and the reference's columns within
    REL_TOL where the reference is finite; extra_columns more columns
    after them must parse as numbers."""
    try:
        lines, units, numbers = parse_sweep(text, len(head))
    except ValueError:
        return False
    unit = head[-1].split(",")[1]
    if lines != head or units != {unit}:
        return False
    if numbers.ndim != 2 or numbers.shape != (ref.shape[0], ref.shape[1] + extra_columns):
        return False
    numbers = numbers[:, : ref.shape[1]]
    ref = ref.astype(np.float64)
    finite = np.isfinite(ref)
    err = np.abs(numbers[finite] - ref[finite])
    return bool(np.all(err <= REL_TOL * np.maximum(1.0, np.abs(ref[finite]))))


def numbers_match(value, ref) -> bool:
    """Structural equality with numbers compared to REL_TOL where the
    reference is finite."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return value == ref
    if isinstance(ref, (int, float)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        return not math.isfinite(ref) or abs(value - ref) <= REL_TOL * max(1.0, abs(ref))
    if isinstance(ref, list):
        return (
            isinstance(value, list)
            and len(value) == len(ref)
            and all(numbers_match(v, r) for v, r in zip(value, ref))
        )
    return (
        isinstance(value, dict)
        and value.keys() == ref.keys()
        and all(numbers_match(value[k], ref[k]) for k in ref)
    )


def same_shape(value, ref) -> bool:
    """Same keys and list lengths, numbers where the reference has them."""
    if isinstance(ref, dict):
        return isinstance(value, dict) and value.keys() == ref.keys() and all(
            same_shape(value[k], ref[k]) for k in ref
        )
    if isinstance(ref, list):
        return isinstance(value, list) and len(value) == len(ref) and all(
            same_shape(v, r) for v, r in zip(value, ref)
        )
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(ref)


def _mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def ladder_problem(cmd) -> str | None:
    """Why a ladder command's outputs are wrong, or None: the ladder must
    fold back to its tf-document and the netlist hold one NIC subcircuit
    per NIC rung. Values may have more digits than int() reads by default."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if not ladder_folds_back(cmd):
            return "ladder does not fold back to its tf-document"
        elements = json.loads(Path(cmd.outputs[0][0]).read_text())["elements"]
        netlist = Path(cmd.outputs[1][0]).read_text().splitlines()
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"unreadable ladder output: {type(exc).__name__}"
    finally:
        sys.set_int_max_str_digits(limit)
    nics = sum(bool(el.get("nic")) for el in elements)
    if sum(line.startswith(".subckt") for line in netlist) != nics:
        return "netlist does not match the ladder's NIC rungs"
    return None


def ladder_folds_back(cmd) -> bool:
    """Fold the ladder q1 + 1/(q2 + 1/(...)), q = g + h*s, in exact
    arithmetic and cross-multiply with the tf-document it was built from
    (float coefficients and the gain converted binary-exactly)."""
    tf_path = cmd.argv[cmd.argv.index("--tf") + 1]
    tf = json.loads(Path(tf_path).read_text())
    ladder = json.loads(Path(cmd.outputs[0][0]).read_text())
    coeff = (lambda t: Fraction(float(t))) if tf["ring"] == "float" else Fraction
    num = [coeff(c) for c in reversed(tf["num"])]
    den = [coeff(c) for c in reversed(tf["den"])]
    if tf["gain"] is not None:
        num = [c * Fraction(tf["gain"]["value"]) for c in num]
    elements = ladder["elements"]
    if not elements:
        return False
    top = [Fraction(elements[-1]["g"]), Fraction(elements[-1]["h"])]
    bottom = [Fraction(1)]
    for el in reversed(elements[:-1]):
        q = [Fraction(el["g"]), Fraction(el["h"])]
        top, bottom = _add(_mul(q, top), bottom), top
    lhs, rhs = _mul(top, den), _mul(num, bottom)
    return _add(lhs, [-c for c in rhs]) == [0] * max(len(lhs), len(rhs))
