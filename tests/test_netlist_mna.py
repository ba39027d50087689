"""The emitted netlist realizes the ladder it was written from.

A modified-nodal-analysis (MNA) oracle in mpmath reads the SPICE dialect
that `export_netlist` writes (R, L, C, the VCVS E, and X instances of
.subckt), solves the impedance seen at the port n0 at 13 points over
1e-3..1e3 rad/s, and compares it with the TF folded from the ladder
document that `ladder` wrote beside the netlist. The cases are the ladders
of acceptance criteria 3, 4 and 8, the order-5 lead-lag and the order-20
semi-differentiator, each emitted through `cli.main`.

With an ideal converter (a gain of 1e40 in place of the emitted one) the
only error left is the 12 significant digits of each printed value, and the
relative error stays within 1e-9 (it was at most 2.5e-11, at the order-20
semi-differentiator). With the emitted gain of 1e6 the negative-impedance
converters depart from the TF by at most 1.18 dB and 6.55 degrees at
these 13 points, both at 1e-3 rad/s on the order-20 semi-differentiator;
the next largest is 0.028 dB and 0.069 degrees, on the order-5 lead-lag.
The test bounds the departure at these points at 1.2 dB and 6.6 degrees.
Between them the departure is larger: the largest known is 6.70 degrees,
at 1.26e-3 rad/s on a grid ten times as dense, so the bound covers the
sampled points only.

How far the 12 printed digits hold at high order is measured on ladders
built in the library, with each converter replaced by the element it
wraps, negated, as an ideal one presents it: the relative error at the 13
points was at most 8.2e-11 for the low-band differintegrator at
lambda = 37/100 (14 orders from 1 to 300), 2.8e-9 for the order-60
low-band FOPID and 1.6e-8 for the order-40 bracket at mu = 13/10 (6.2e-8
at order 60, whose expansion takes about 11 s). The test bounds it at
1e-6 at the largest of those orders.
"""

import json
from fractions import Fraction

import pytest

mpmath = pytest.importorskip("mpmath")

from fracrat import (  # noqa: E402
    FOPID,
    Differintegrator,
    FOPDBracket,
    LadderElement,
    LadderNetwork,
    export_netlist,
    ladder_to_tf,
    make_tf,
    map_elements,
    realize_differintegrator,
    realize_fopd_bracket,
    realize_fopid,
    synthesize_ladder,
)
from fracrat.cli import emit_tf_document, main  # noqa: E402

OMEGAS = [mpmath.mpf(10) ** (mpmath.mpf(k) / 2) for k in range(-6, 7)]
IDEAL_GAIN = "1e40"

_REALIZED = {
    "criterion 3": "--controller diffint --lambda 1/2 --order 3",
    "criterion 4": "--controller diffint --lambda 1/2 --range high --order 3",
    "lead-lag n5": "--controller leadlag --kc 2 --lambda 1/10 --x 1/20 --alpha 1/2 --order 5",
    "semi-differentiator n20": "--controller diffint --lambda 1/2 --sign differentiator --order 20",
}
# acceptance criterion 8: rounded decimal TFs taken as they are
_ROUNDED = {
    "criterion 8 bracket": (("49.00", "74.09", "30.82", "2.92"), ("35.82", "47.23", "15.99", "1")),
    "criterion 8 lead-lag": (
        ("2203.66", "2478.46", "798.69", "64.88"),
        ("220.36", "177.63", "34.68", "1"),
    ),
}
CASES = sorted(_REALIZED) + sorted(_ROUNDED)


def _emit(case, tmp_path):
    """(netlist text, ladder document) that `ladder` writes for the case."""
    tf_file, ladder_file, netlist = (tmp_path / name for name in ("tf.json", "ladder.json", "l.cir"))
    if case in _REALIZED:
        assert main(["realize", *_REALIZED[case].split(), "-o", str(tf_file)]) == 0
    else:
        num, den = (tuple(Fraction(t) for t in side) for side in _ROUNDED[case])
        tf_file.write_text(emit_tf_document(make_tf(num, den)))
    argv = ["ladder", "--tf", str(tf_file), "-o", str(ladder_file), "--netlist", str(netlist)]
    assert main(argv) == 0
    return netlist.read_text(), json.loads(ladder_file.read_text())


def _folded(doc):
    """The TF folded from a ladder document's rungs."""
    elements = tuple(
        LadderElement(el["role"], Fraction(el["g"]), Fraction(el["h"]), el["position"])
        for el in doc["elements"]
    )
    return ladder_to_tf(LadderNetwork(elements))


def _split(text):
    """(main lines, {subcircuit: (ports, lines)}) of a netlist, each line
    as its fields."""
    main_lines, subckts, body = [], {}, None
    for line in text.splitlines():
        fields = line.split()
        if not fields or fields[0].startswith("*"):
            continue
        if fields[0] == ".subckt":
            body = subckts[fields[1]] = (fields[2:], [])
        elif fields[0] == ".ends":
            body = None
        else:
            (main_lines if body is None else body[1]).append(fields)
    return main_lines, subckts


def _flatten(text, gain=None):
    """The netlist's elements as (kind, nodes, value) with every X instance
    expanded: its ports take the instance's nodes, and its other nodes are
    prefixed with the instance name. `gain` replaces every E gain."""
    main_lines, subckts = _split(text)
    out = []
    for fields in main_lines:
        if fields[0][0] != "X":
            out.append(fields)
            continue
        ports, lines = subckts[fields[-1]]
        rename = dict(zip(ports, fields[1:-1]), **{"0": "0"})
        for sub in lines:
            out.append([sub[0], *(rename.get(n, f"{fields[0]}.{n}") for n in sub[1:-1]), sub[-1]])
    return [(f[0][0], f[1:-1], mpmath.mpf(gain if gain and f[0][0] == "E" else f[-1])) for f in out]


def _negated(text):
    """The netlist's elements as _flatten gives them, but with every X
    instance replaced by the element it wraps, negated: what an ideal
    converter presents between its ports p and t. The wrapped element sits
    between the subcircuit's nodes m and t, beside E1, R1 and R2."""
    main_lines, subckts = _split(text)
    out = []
    for fields in main_lines:
        if fields[0][0] != "X":
            out.append((fields[0][0], fields[1:-1], mpmath.mpf(fields[-1])))
            continue
        ports, lines = subckts[fields[-1]]
        rename = dict(zip(ports, fields[1:-1]))
        rename["m"] = rename["p"]
        for sub in lines:
            if sub[0] not in ("E1", "R1", "R2"):
                nodes = [rename.get(n, f"{fields[0]}.{n}") for n in sub[1:-1]]
                out.append((sub[0][0], nodes, -mpmath.mpf(sub[-1])))
    return out


def _port_impedance(elements, s):
    """Impedance at n0 against ground: 1 A into n0, solved by MNA with one
    branch-current unknown per VCVS, by sparse Gaussian elimination with
    partial pivoting (the ladder's matrix is banded)."""
    index = {}
    for _, nodes, _ in elements:
        for n in nodes:
            if n != "0":
                index.setdefault(n, len(index))
    rows = [dict() for _ in index]

    def add(r, c, v):
        if r is not None and c is not None:
            rows[r][c] = rows[r].get(c, 0) + v

    for kind, nodes, value in elements:
        i, j = (index.get(n) for n in nodes[:2])
        if kind == "E":  # V(o) - V(t) = A (V(p) - V(m)), current b from o through t
            p, m = (index.get(n) for n in nodes[2:])
            b = len(rows)
            rows.append({})
            add(i, b, 1)
            add(j, b, -1)
            add(b, i, 1)
            add(b, j, -1)
            add(b, p, -value)
            add(b, m, value)
            continue
        y = {"R": 1 / value, "L": 1 / (s * value), "C": s * value}[kind]
        add(i, i, y)
        add(j, j, y)
        add(i, j, -y)
        add(j, i, -y)
    n = len(rows)
    rhs = [mpmath.mpc(0)] * n
    rhs[index["n0"]] = mpmath.mpc(1)
    for col in range(n):
        pivot = max((r for r in range(col, n) if rows[r].get(col)), key=lambda r: abs(rows[r][col]))
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        head = rows[col]
        for r in range(col + 1, n):
            factor = rows[r].pop(col, 0)
            if factor:
                factor /= head[col]
                for c, v in head.items():
                    if c != col:
                        rows[r][c] = rows[r].get(c, 0) - factor * v
                rhs[r] -= factor * rhs[col]
    x = [0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (rhs[r] - sum(v * x[c] for c, v in rows[r].items() if c != r)) / rows[r][r]
    return x[index["n0"]]


def _response(tf, s):
    def value(coeffs):
        return sum(mpmath.mpf(c.numerator) / c.denominator * s**k for k, c in enumerate(coeffs))

    return value(tf.num) / value(tf.den)


@pytest.mark.parametrize("case", CASES)
def test_emitted_netlist_realizes_the_folded_tf(case, tmp_path):
    text, doc = _emit(case, tmp_path)
    tf = _folded(doc)
    with mpmath.workdps(50):
        ideal, emitted = _flatten(text, IDEAL_GAIN), _flatten(text)
        for omega in OMEGAS:
            s = mpmath.mpc(0, omega)
            want = _response(tf, s)
            rel = abs(_port_impedance(ideal, s) - want) / abs(want)
            assert rel <= 1e-9, (case, omega, rel)
            ratio = _port_impedance(emitted, s) / want
            db = abs(20 * mpmath.log10(abs(ratio)))
            degrees = abs(mpmath.degrees(mpmath.arg(ratio)))
            assert db <= 1.2 and degrees <= 6.6, (case, omega, db, degrees)


_HIGH_ORDER = {
    "differintegrator n300": lambda: realize_differintegrator(Differintegrator(Fraction(37, 100)), 300),
    "FOPID n60": lambda: realize_fopid(
        FOPID(Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 2)), "low", 60
    ),
    "bracket n40": lambda: realize_fopd_bracket(FOPDBracket(Fraction(1), Fraction(1, 2), Fraction(13, 10)), 40),
}


@pytest.mark.parametrize("case", sorted(_HIGH_ORDER))
def test_printed_digits_hold_at_high_order(case):
    """The values printed to 12 significant digits, behind ideal converters,
    give the TF within 1e-6 relative (the bracket without its gain tag, which
    stays outside the ladder). Built in the library: the bracket's ladder
    document passes the int-to-str digit cap (ROADMAP item 5)."""
    realized = _HIGH_ORDER[case]()
    tf = make_tf(realized.num, realized.den)
    text = export_netlist(map_elements(synthesize_ladder(tf)))
    with mpmath.workdps(50):
        elements = _negated(text)
        for omega in OMEGAS:
            s = mpmath.mpc(0, omega)
            want = _response(tf, s)
            rel = abs(_port_impedance(elements, s) - want) / abs(want)
            assert rel <= 1e-6, (case, omega, rel)
