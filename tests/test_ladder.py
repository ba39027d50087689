"""Domino ladder synthesis, component mapping, and netlist export."""

import random
from fractions import Fraction

import pytest

from fracrat import (
    DegenerateMathError,
    Differintegrator,
    LadderElement,
    LadderNetwork,
    ValidationError,
    export_netlist,
    ladder_to_tf,
    make_tf,
    map_elements,
    realize_differintegrator,
    synthesize_ladder,
)


def _ladder(*pairs) -> LadderNetwork:
    elements = []
    for i, (g, h) in enumerate(pairs):
        role = "Z" if i % 2 == 0 else "Y"
        elements.append(LadderElement(role, Fraction(g), Fraction(h), i + 1))
    return LadderNetwork(tuple(elements))


def test_half_integrator_ladder_elements():
    tf = make_tf((7, 56, 112, 64), (1, 24, 80, 64))
    net = synthesize_ladder(tf)
    got = [(el.role, el.g, el.h) for el in net.elements]
    assert got == [
        ("Z", Fraction(1), Fraction(0)),
        ("Y", Fraction(1, 2), Fraction(2)),
        ("Z", Fraction(-4), Fraction(-8)),
        ("Y", Fraction(1), Fraction(2)),
    ]


def test_half_integrator_high_range_ladder_elements():
    tf = make_tf((64, 80, 24, 1), (64, 112, 56, 7))
    net = synthesize_ladder(tf)
    got = [(el.role, el.g, el.h) for el in net.elements]
    assert got == [
        ("Z", Fraction(1, 7), Fraction(0)),
        ("Y", Fraction(7, 4), Fraction(7, 16)),
        ("Z", Fraction(-16, 9), Fraction(-2, 3)),
        ("Y", Fraction(63, 4), Fraction(189, 16)),
    ]


def test_north_star_low_band_ladder_folds_back_exactly():
    tf = realize_differintegrator(Differintegrator(Fraction(37, 100)), 120)
    assert ladder_to_tf(synthesize_ladder(tf)) == tf


def test_north_star_low_band_ladder_has_a_rung_value_per_coefficient():
    # every Euclidean step lowers the degree by one, so the n + 1 rungs carry
    # num_degree + den_degree + 1 nonzero values: one per free coefficient
    # of the normalized TF
    tf = realize_differintegrator(Differintegrator(Fraction(37, 100)), 300)
    net = synthesize_ladder(tf)
    assert len(net) == tf.den_degree + 1 == 301
    values = [v for el in net.elements for v in (el.g, el.h) if v]
    assert len(values) == tf.num_degree + tf.den_degree + 1


def test_ladder_round_trip_on_random_networks():
    rng = random.Random(97)
    for _ in range(40):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            g = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            h = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            pairs.append((g, h))
        net = _ladder(*pairs)
        back = synthesize_ladder(ladder_to_tf(net))
        assert [(e.g, e.h) for e in back.elements] == [
            (e.g, e.h) for e in net.elements
        ]


def test_non_affine_quotient_is_rejected():
    with pytest.raises(DegenerateMathError):
        synthesize_ladder(make_tf((1, 0, 1), (1,)))


def test_network_validates_roles_and_positions():
    with pytest.raises(ValidationError):
        LadderNetwork((LadderElement("Y", Fraction(1), Fraction(0), 1),))
    with pytest.raises(ValidationError):
        LadderNetwork((LadderElement("Z", Fraction(1), Fraction(0), 2),))
    with pytest.raises(ValidationError):
        ladder_to_tf(LadderNetwork(()))


def test_element_rendering():
    assert str(LadderElement("Y", Fraction(1, 2), Fraction(2), 2)) == "Y2(s) = 2*s + 1/2"
    assert str(LadderElement("Z", Fraction(-4), Fraction(-8), 3)) == "Z3(s) = -8*s - 4"
    assert str(LadderElement("Z", Fraction(1), Fraction(0), 1)) == "Z1(s) = 1"


def test_map_elements_on_mixed_network():
    net = _ladder((1, 0), (Fraction(1, 2), 2), (-4, -8), (1, 2))
    parts = map_elements(net)
    assert [(p.role, p.position) for p in parts] == [
        ("Z", 1),
        ("Y", 2),
        ("Z", 3),
        ("Y", 4),
    ]
    z1, y2, z3, y4 = parts
    assert (z1.resistance, z1.inductance, z1.nic_wrapped) == (1, None, False)
    # shunt resistance is the reciprocal of the admittance constant
    assert (y2.resistance, y2.capacitance) == (2, 2)
    assert (z3.resistance, z3.inductance, z3.nic_wrapped) == (4, 8, True)
    assert (y4.resistance, y4.capacitance) == (1, 2)


def test_map_elements_annotates_negative_shunt():
    net = _ladder((1, 1), (Fraction(-1, 2), -2))
    parts = map_elements(net)
    y = parts[-1]
    assert y.nic_wrapped
    assert (y.resistance, y.capacitance) == (2, 2)


def test_map_elements_splits_mixed_signs_and_skips_zeros():
    net = _ladder((1, -2), (0, 0), (0, 3))
    parts = map_elements(net)
    # rung 1 splits into a positive resistor and a wrapped inductor,
    # rung 2 vanishes, rung 3 keeps only its inductive series part
    assert [(p.role, p.position, p.nic_wrapped) for p in parts] == [
        ("Z", 1, False),
        ("Z", 1, True),
        ("Z", 3, False),
    ]
    assert parts[0].resistance == 1 and parts[0].inductance is None
    assert parts[1].inductance == 2 and parts[1].resistance is None
    assert parts[2].inductance == 3


def test_netlist_single_resistor_golden():
    netlist = export_netlist(map_elements(synthesize_ladder(make_tf((1,), (1,)))))
    assert netlist == "R1 n0 0 1\n* port n0 0\n"


def test_netlist_structure_and_determinism():
    tf = make_tf((7, 56, 112, 64), (1, 24, 80, 64))
    parts = map_elements(synthesize_ladder(tf))
    netlist = export_netlist(parts)
    assert netlist == export_netlist(parts)  # same input, same text
    lines = netlist.splitlines()
    assert "X1 n1 n2 ladder_nic1" in lines
    assert lines.count(".subckt ladder_nic1 p t") == 1
    assert sum(1 for l in lines if l.startswith(".subckt")) == 1
    assert lines[-1] == "* port n0 0"
    # series rungs advance the chain: the shunt pair lands on the new node
    assert any(l.startswith("R3 n2 0") for l in lines)
    assert any(l.startswith("C2 n2 0") for l in lines)


def test_netlist_golden_low_band_differentiator():
    # Z3 and Z5 are positive R+L series rungs, Y2 and Y4 NIC-wrapped shunts;
    # a series rung's target node is numbered before its internal node
    tf = realize_differintegrator(
        Differintegrator(Fraction(37, 100), sign="differentiator"), 4
    )
    assert export_netlist(map_elements(synthesize_ladder(tf))) == (
        "R1 n0 n1 1\n"
        "X1 n1 0 ladder_nic1\n"
        "R2 n1 n3 2.57212374001\n"
        "L1 n3 n2 5.14424748001\n"
        "X2 n2 0 ladder_nic2\n"
        "R3 n2 n4 2.6158867868\n"
        "L2 n4 0 5.23177357359\n"
        ".subckt ladder_nic1 p t\n"
        "E1 o t p m 1e6\n"
        "R1 p o 1000\n"
        "R2 m o 1000\n"
        "R3 m t 0.540145985401\n"
        "C1 m t 2.7027027027\n"
        ".ends\n"
        ".subckt ladder_nic2 p t\n"
        "E1 o t p m 1e6\n"
        "R1 p o 1000\n"
        "R2 m o 1000\n"
        "R3 m t 0.662424748001\n"
        "C1 m t 3.01921087042\n"
        ".ends\n"
        "* port n0 0\n"
    )


def test_netlist_golden_mixed_signs_and_wrapped_series():
    # Z1 splits into a resistor and a wrapped inductor, Y2 into a resistor
    # and a wrapped capacitor; the wrapped R+L of Z3 numbers its internal
    # node inside its own subcircuit
    net = _ladder((1, -2), (Fraction(1, 2), -3), (-3, -5), (2, 1))
    assert export_netlist(map_elements(net), name="mix") == (
        "R1 n0 n2 1\n"
        "X1 n2 n1 mix_nic1\n"
        "R2 n1 0 2\n"
        "X2 n1 0 mix_nic2\n"
        "X3 n1 n3 mix_nic3\n"
        "R3 n3 0 0.5\n"
        "C1 n3 0 1\n"
        ".subckt mix_nic1 p t\n"
        "E1 o t p m 1e6\n"
        "R1 p o 1000\n"
        "R2 m o 1000\n"
        "L1 m t 2\n"
        ".ends\n"
        ".subckt mix_nic2 p t\n"
        "E1 o t p m 1e6\n"
        "R1 p o 1000\n"
        "R2 m o 1000\n"
        "C1 m t 3\n"
        ".ends\n"
        ".subckt mix_nic3 p t\n"
        "E1 o t p m 1e6\n"
        "R1 p o 1000\n"
        "R2 m o 1000\n"
        "R3 m n1 3\n"
        "L1 n1 t 5\n"
        ".ends\n"
        "* port n0 0\n"
    )
