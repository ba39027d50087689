"""Domino-ladder synthesis and passive-network mapping.

A numeric rational impedance is expanded into alternating series/shunt
affine elements Z1, Y2, Z3, ... (Cauer form). Elements with negative
coefficients are realized behind negative impedance converters; negative
admittances additionally carry the two-block cascade factorization as an
alternative realization. A small SPICE-dialect netlist exporter closes the
loop to a circuit description.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import polys
from .approx import ContinuedFraction, TransferFunction, cfe_to_tf, make_tf, rational_to_cfe
from .controllers import _rat
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
class CascadeBlocks:
    """Two-block realization of 1/(g + h*s) per the negative-admittance trick.

    first = 1/(g - h*s), second = (g - h*s)/(g + h*s); their product equals
    the original impedance identically. `unstable` marks a right-half-plane
    pole in the first block.
    """

    first: TransferFunction
    second: TransferFunction
    unstable: bool
    note: str | None = None


def factor_negative_admittance(g, h) -> CascadeBlocks:
    """Split Z = 1/(g + h*s) into the mirrored-denominator cascade pair.

    g and h enter through controllers._rat: a float is read as printed
    (0.1 is 1/10), and input that is not a rational number raises
    ValidationError.
    """
    g = _rat(g, "g")
    h = _rat(h, "h")
    if not g and not h:
        raise DegenerateMathError("zero admittance")
    if not h:
        return CascadeBlocks(
            first=make_tf((1,), (g,)),
            second=make_tf((1,), (1,)),
            unstable=False,
            note="plain resistor",
        )
    first = make_tf((1,), (g, -h))
    second = make_tf((g, -h), (g, h))
    return CascadeBlocks(first, second, unstable=g * h > 0)


@dataclass(frozen=True)
class CircuitElement:
    """Passive one-port piece realizing one sign-uniform part of a rung.

    Series impedances become a resistor (g ohms) in series with an inductor
    (h henries); shunt admittances a resistor (1/g ohms) in parallel with a
    capacitor (h farads). All stored values are positive magnitudes; a
    negative part is the same component set behind an ideal NIC
    (nic_wrapped). A vanished g or h leaves the matching field None.
    """

    role: str
    position: int
    resistance: Fraction | None = None
    inductance: Fraction | None = None
    capacitance: Fraction | None = None
    nic_wrapped: bool = False
    cascade: CascadeBlocks | None = None


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
    produce no components. Wrapped shunt parts carry the cascade
    factorization of their (negative) admittance as an annotation.
    """
    out = []
    for el in net.elements:
        if not (el.g or el.h):
            continue
        for g, h, negative in _sign_uniform_parts(el.g, el.h):
            cascade = None
            if negative and el.role == "Y":
                # annotate with the cascade route for the signed admittance
                cascade = factor_negative_admittance(-g, -h)
            if el.role == "Z":
                out.append(
                    CircuitElement(
                        role="Z",
                        position=el.position,
                        resistance=g or None,
                        inductance=h or None,
                        nic_wrapped=negative,
                        cascade=cascade,
                    )
                )
            else:
                out.append(
                    CircuitElement(
                        role="Y",
                        position=el.position,
                        resistance=(Fraction(1) / g) if g else None,
                        capacitance=h or None,
                        nic_wrapped=negative,
                        cascade=cascade,
                    )
                )
    return out


def _fmt(value: Fraction) -> str:
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return f"{f:.12g}"


class _Netlist:
    """Line builder with deterministic node and reference numbering."""

    def __init__(self):
        self.lines = []
        self.subckts = []
        self.node_count = 1  # n0 exists from the start
        self.counts = {"R": 0, "L": 0, "C": 0, "X": 0}

    def new_node(self) -> str:
        node = f"n{self.node_count}"
        self.node_count += 1
        return node

    def ref(self, kind: str) -> str:
        self.counts[kind] += 1
        return f"{kind}{self.counts[kind]}"


def _emit_component(nl: _Netlist, element: CircuitElement, a: str, b: str):
    """Element body between nodes a and b (R+L in series, or R parallel C)."""
    if element.role == "Z":
        stages = []
        if element.resistance is not None:
            stages.append(("R", element.resistance))
        if element.inductance is not None:
            stages.append(("L", element.inductance))
        node = a
        for i, (kind, value) in enumerate(stages):
            nxt = b if i == len(stages) - 1 else nl.new_node()
            nl.lines.append(f"{nl.ref(kind)} {node} {nxt} {_fmt(value)}")
            node = nxt
    else:
        if element.resistance is not None:
            nl.lines.append(f"{nl.ref('R')} {a} {b} {_fmt(element.resistance)}")
        if element.capacitance is not None:
            nl.lines.append(f"{nl.ref('C')} {a} {b} {_fmt(element.capacitance)}")


def _emit_nic(nl: _Netlist, element: CircuitElement, a: str, b: str, name: str):
    """One-port NIC instance presenting the negated element between a and b.

    Fig.-2 style converter: ideal op-amp as a VCVS, two equal feedback
    resistors, wrapped element from the inverting node to the far terminal.
    """
    ref = nl.ref("X")
    sub = f"{name}_nic{nl.counts['X']}"
    nl.lines.append(f"{ref} {a} {b} {sub}")
    body = _Netlist()
    body.lines.append(f".subckt {sub} p t")
    body.lines.append(f"E1 o t p m {_NIC_OPAMP_GAIN}")
    body.lines.append(f"R1 p o {_NIC_RESISTOR}")
    body.lines.append(f"R2 m o {_NIC_RESISTOR}")
    inner = _Netlist()
    inner.counts["R"] = 2  # R1, R2 are taken by the converter itself
    _emit_component(inner, element, "m", "t")
    body.lines.extend(inner.lines)
    body.lines.append(".ends")
    nl.subckts.extend(body.lines)


def export_netlist(elements, name: str = "ladder") -> str:
    """SPICE-dialect netlist of the mapped ladder.

    Series rungs advance the chain node, shunt rungs hang off it; the last
    rung closes to ground so the one-port impedance seen at n0 equals the
    folded ladder. Output is deterministic for identical input.
    """
    elements = list(elements)
    if not elements:
        raise ValidationError("no elements to export")
    positions = sorted({el.position for el in elements})
    nl = _Netlist()
    node = "n0"
    for pos_index, position in enumerate(positions):
        group = [el for el in elements if el.position == position]
        role = group[0].role
        last = pos_index == len(positions) - 1
        if role == "Z":
            target = "0" if last else nl.new_node()
            chain = node
            for i, el in enumerate(group):
                seg_end = target if i == len(group) - 1 else nl.new_node()
                if el.nic_wrapped:
                    _emit_nic(nl, el, chain, seg_end, name)
                else:
                    _emit_component(nl, el, chain, seg_end)
                chain = seg_end
            node = target
        else:
            for el in group:
                if el.nic_wrapped:
                    _emit_nic(nl, el, node, "0", name)
                else:
                    _emit_component(nl, el, node, "0")
    out = nl.lines + nl.subckts
    out.append("* port n0 0")
    return "\n".join(out) + "\n"
