"""Domino-ladder synthesis and passive-network mapping.

A numeric rational impedance is expanded into alternating series/shunt
affine elements Z1, Y2, Z3, ... (Cauer form). Elements with negative
coefficients are realized behind negative impedance converters. A small
SPICE-dialect netlist exporter closes the loop to a circuit description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby

from . import polys
from .approx import ContinuedFraction, TransferFunction, cfe_to_tf, rational_to_cfe
from .errors import DegenerateMathError, ValidationError

_NIC_OPAMP_GAIN = "1e6"
_NIC_RESISTOR = "1000"


@dataclass(frozen=True)
class LadderElement:
    """One rung: a series impedance or shunt admittance g + h*s."""

    role: str  # "Z" or "Y"
    g: Fraction
    h: Fraction
    position: int

    def coeffs(self) -> tuple:
        return polys.trim((self.g, self.h))

    def __str__(self):
        kind = "Z" if self.role == "Z" else "Y"
        if not self.h:
            body = str(self.g)
        elif not self.g:
            body = f"{self.h}*s"
        else:
            sign = "+" if self.g > 0 else "-"
            body = f"{self.h}*s {sign} {abs(self.g)}"
        return f"{kind}{self.position}(s) = {body}"


@dataclass(frozen=True)
class LadderNetwork:
    """Alternating Z/Y elements, Z first, positions 1..N."""

    elements: tuple

    def __post_init__(self):
        for i, el in enumerate(self.elements):
            expected = "Z" if i % 2 == 0 else "Y"
            if el.role != expected:
                raise ValidationError(
                    f"element {i + 1} has role {el.role}, expected {expected}"
                )
            if el.position != i + 1:
                raise ValidationError("element positions must run 1..N")

    def __len__(self):
        return len(self.elements)


def synthesize_ladder(tf: TransferFunction) -> LadderNetwork:
    """Expand a numeric TF into the domino-ladder element list.

    The Euclidean quotients of the continued-fraction expansion become the
    alternating series impedances and shunt admittances; every quotient
    must come out affine in s for the network to be realizable this way.
    """
    cf = rational_to_cfe(tf)
    elements = []
    for i, q in enumerate(cf.quotients):
        if len(q) > 2:
            raise DegenerateMathError(
                f"quotient {i + 1} has degree {len(q) - 1}; the ladder needs affine elements"
            )
        g = q[0] if len(q) > 0 else Fraction(0)
        h = q[1] if len(q) > 1 else Fraction(0)
        elements.append(
            LadderElement("Z" if i % 2 == 0 else "Y", g, h, i + 1)
        )
    return LadderNetwork(tuple(elements))


def ladder_to_tf(net: LadderNetwork) -> TransferFunction:
    """Fold the nested ladder fraction back into one rational function."""
    if not net.elements:
        raise ValidationError("empty ladder")
    cf = ContinuedFraction(tuple(el.coeffs() or (Fraction(0),) for el in net.elements))
    return cfe_to_tf(cf)


@dataclass(frozen=True)
class CircuitElement:
    """Passive one-port piece realizing one sign-uniform part of a rung.

    Series impedances become a resistor (g ohms) in series with an inductor
    (h henries); shunt admittances a resistor (1/g ohms) in parallel with a
    capacitor (h farads). All stored values are positive magnitudes; a
    negative part is the same component set behind a negative impedance
    converter (nic_wrapped), which export_netlist builds around a VCVS of
    finite gain 1e6 rather than an ideal op-amp. A vanished g or h leaves
    the matching field None.
    """

    role: str
    position: int
    resistance: Fraction | None = None
    inductance: Fraction | None = None
    capacitance: Fraction | None = None
    nic_wrapped: bool = False


def _sign_uniform_parts(g: Fraction, h: Fraction):
    """Split an affine value into at most two sign-uniform (g, h, negative) parts."""
    if g >= 0 and h >= 0:
        return [(g, h, False)]
    if g <= 0 and h <= 0:
        return [(-g, -h, True)]
    parts = []
    if g > 0:
        parts.append((g, Fraction(0), False))
    elif g < 0:
        parts.append((-g, Fraction(0), True))
    if h > 0:
        parts.append((Fraction(0), h, False))
    elif h < 0:
        parts.append((Fraction(0), -h, True))
    return parts


def map_elements(net: LadderNetwork) -> list:
    """Passive components (with NIC wrapping) for every ladder rung.

    Mixed-sign rungs split into two sign-uniform parts sharing the rung's
    position: in series for a Z rung, in parallel for a Y rung. Zero rungs
    produce no components.
    """
    out = []
    for el in net.elements:
        if not (el.g or el.h):
            continue
        series = el.role == "Z"
        for g, h, negative in _sign_uniform_parts(el.g, el.h):
            out.append(
                CircuitElement(
                    role=el.role,
                    position=el.position,
                    resistance=(g if series else Fraction(1) / g) if g else None,
                    inductance=(h or None) if series else None,
                    capacitance=None if series else (h or None),
                    nic_wrapped=negative,
                )
            )
    return out


def _fmt(value: Fraction) -> str:
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.12g}"


def _next(counts: dict, kind: str) -> str:
    """Take the next reference (R, L, C, X) or internal node (n) of a scope."""
    counts[kind] += 1
    return f"{kind}{counts[kind]}"


def _component_lines(element: CircuitElement, a: str, b: str, counts: dict) -> list:
    """Element body between nodes a and b: R then L in series, or R and C in
    parallel, numbered from the scope counts."""
    if element.role == "Y":
        values = (("R", element.resistance), ("C", element.capacitance))
        return [f"{_next(counts, k)} {a} {b} {_fmt(v)}" for k, v in values if v is not None]
    values = [(k, v) for k, v in (("R", element.resistance), ("L", element.inductance)) if v is not None]
    lines = []
    for i, (kind, value) in enumerate(values):
        end = b if i == len(values) - 1 else _next(counts, "n")
        lines.append(f"{_next(counts, kind)} {a} {end} {_fmt(value)}")
        a = end
    return lines


def export_netlist(elements, name: str = "ladder") -> str:
    """SPICE-dialect netlist of the mapped ladder.

    Series rungs advance the chain node, shunt rungs hang off it; the last
    rung closes to ground so the one-port impedance seen at n0 equals the
    folded ladder. A series rung numbers its far node before the nodes
    inside it. Output is deterministic for identical input.

    Each NIC-wrapped part becomes an instance of its own subcircuit, listed
    after the main lines: the Fig.-2 style converter, a VCVS of finite gain
    1e6 with two equal feedback resistors, presents the negated element
    between its ports p and t. Subcircuit nodes and references are numbered
    locally.
    """
    elements = sorted(elements, key=lambda el: el.position)
    if not elements:
        raise ValidationError("no elements to export")
    counts = dict.fromkeys("RLCXn", 0)  # n0 is the port, so n1 comes first
    lines, subckts = [], []

    def place(element, a, b):
        if not element.nic_wrapped:
            lines.extend(_component_lines(element, a, b, counts))
            return
        ref = _next(counts, "X")
        sub = f"{name}_nic{counts['X']}"
        lines.append(f"{ref} {a} {b} {sub}")
        subckts.append(f".subckt {sub} p t")
        subckts.append(f"E1 o t p m {_NIC_OPAMP_GAIN}")
        subckts.append(f"R1 p o {_NIC_RESISTOR}")
        subckts.append(f"R2 m o {_NIC_RESISTOR}")
        # the wrapped element's resistors follow the converter's own R1, R2
        inner = {"R": 2, "L": 0, "C": 0, "n": 0}
        subckts.extend(_component_lines(element, "m", "t", inner))
        subckts.append(".ends")

    groups = [list(g) for _, g in groupby(elements, key=lambda el: el.position)]
    node = "n0"
    for i, group in enumerate(groups):
        if group[0].role == "Y":
            for el in group:
                place(el, node, "0")
            continue
        target = "0" if i == len(groups) - 1 else _next(counts, "n")
        for j, el in enumerate(group):
            end = target if j == len(group) - 1 else _next(counts, "n")
            place(el, node, end)
            node = end
    return "\n".join(lines + subckts + ["* port n0 0"]) + "\n"
