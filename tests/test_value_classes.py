"""The contract of the package's immutable value classes: construction by
position and keyword with their defaults, equality and hashing over the
compared fields (all but GainTag.fixed and TransferFunction.notes), no
equality with another class, the exact repr, refused assignment and a
pickle round trip."""

import copy
import pickle
from fractions import Fraction

import pytest

from fracrat.approx import GainTag, TransferFunction
from fracrat.baselines import BaselineConfig
from fracrat.controllers import FOPID, Differintegrator, FOPDBracket, LeadLag
from fracrat.freqresp import BodeSweep, FitReport, FrequencyGrid
from fracrat.ladder import CircuitElement, LadderElement, LadderNetwork
from fracrat.series import PowerSeries

F = Fraction
GRID = FrequencyGrid((1, 10))
ELEMENT = LadderElement("Z", F(1), F(2), 1)

# (class, field names, positional arguments, keyword arguments that build
# an equal instance, the expected repr, a field and a value that makes an
# unequal instance)
CASES = [
    (GainTag, ("label", "value", "fixed"), ("Kp^mu", 0.5, (("mu", F(1, 2)),)),
     dict(label="Kp^mu", value=0.5),
     "GainTag(label='Kp^mu', value=0.5, fixed=(('mu', Fraction(1, 2)),))",
     "value", 0.25),
    (TransferFunction, ("num", "den", "ring", "gain", "notes"),
     ((F(1),), (F(1), F(2)), "rational", None, ("pade-defect=1",)),
     dict(num=(F(1),), den=(F(1), F(2)), ring="rational"),
     "TransferFunction(num=(Fraction(1, 1),), den=(Fraction(1, 1), Fraction(2, 1)),"
     " ring='rational', gain=None, notes=('pade-defect=1',))",
     "gain", GainTag("g")),
    (PowerSeries, ("coeffs",), ([F(1), F(1, 2)],), dict(coeffs=(F(1), F(1, 2))),
     "PowerSeries(coeffs=(Fraction(1, 1), Fraction(1, 2)))",
     "coeffs", (F(1),)),
    (Differintegrator, ("lam", "sign", "freq_range", "T"), ("1/2",), dict(lam=F(1, 2)),
     "Differintegrator(lam=Fraction(1, 2), sign='integrator', freq_range='low', T=Fraction(1, 1))",
     "sign", "differentiator"),
    (FOPID, ("Kp", "Ki", "Kd", "lam", "mu"), (1, "1/2", None, 0.5, F(3, 2)),
     dict(Kp=F(1), Ki=F(1, 2), Kd=None, lam=F(1, 2), mu=F(3, 2)),
     "FOPID(Kp=Fraction(1, 1), Ki=Fraction(1, 2), Kd=None, lam=Fraction(1, 2), mu=Fraction(3, 2))",
     "Kd", F(1)),
    (FOPDBracket, ("Kp", "Kd", "mu"), (1, 2, "1/2"), dict(Kp=1, Kd=2, mu=F(1, 2)),
     "FOPDBracket(Kp=Fraction(1, 1), Kd=Fraction(2, 1), mu=Fraction(1, 2))",
     "mu", F(1, 3)),
    (LeadLag, ("Kc", "lam", "x", "alpha"), (2, "1/10", "1/20", None),
     dict(Kc=2, lam=F(1, 10), x=F(1, 20), alpha=None),
     "LeadLag(Kc=Fraction(2, 1), lam=Fraction(1, 10), x=Fraction(1, 20), alpha=None)",
     "alpha", F(1, 2)),
    (BaselineConfig, ("lam", "omega_b", "omega_h", "N"), (F(1, 2), 1, 100, 2),
     dict(lam=0.5, omega_b=1.0, omega_h=100.0, N=2),
     "BaselineConfig(lam=0.5, omega_b=1.0, omega_h=100.0, N=2)",
     "N", 3),
    (FrequencyGrid, ("values", "unit"), ([1, 10],), dict(values=(1.0, 10.0)),
     "FrequencyGrid(values=(1.0, 10.0), unit='hz')",
     "unit", "rad"),
    (BodeSweep, ("grid", "mag_db", "phase_deg"), (GRID, (0.0, 1.0), (45.0, 45.0)),
     dict(grid=GRID, mag_db=(0.0, 1.0), phase_deg=(45.0, 45.0)),
     "BodeSweep(grid=FrequencyGrid(values=(1.0, 10.0), unit='hz'), mag_db=(0.0, 1.0),"
     " phase_deg=(45.0, 45.0))",
     "mag_db", (0.0, 2.0)),
    (FitReport, ("max_phase_err_deg", "mean_phase_err_deg", "max_mag_err_db", "mean_mag_err_db",
                 "band", "constant_phase_band"),
     (1.0, 0.5, 2.0, 1.0, (1.0, 10.0), None),
     dict(max_phase_err_deg=1.0, mean_phase_err_deg=0.5, max_mag_err_db=2.0,
          mean_mag_err_db=1.0, band=(1.0, 10.0), constant_phase_band=None),
     "FitReport(max_phase_err_deg=1.0, mean_phase_err_deg=0.5, max_mag_err_db=2.0,"
     " mean_mag_err_db=1.0, band=(1.0, 10.0), constant_phase_band=None)",
     "constant_phase_band", (1.0, 2.0)),
    (LadderElement, ("role", "g", "h", "position"), ("Z", F(1), F(2), 1),
     dict(role="Z", g=F(1), h=F(2), position=1),
     "LadderElement(role='Z', g=Fraction(1, 1), h=Fraction(2, 1), position=1)",
     "h", F(3)),
    (LadderNetwork, ("elements",), ((ELEMENT,),), dict(elements=(ELEMENT,)),
     "LadderNetwork(elements=(LadderElement(role='Z', g=Fraction(1, 1), h=Fraction(2, 1),"
     " position=1),))",
     "elements", ()),
    (CircuitElement, ("role", "position", "resistance", "inductance", "capacitance", "nic_wrapped"),
     ("Z", 1, F(1)), dict(role="Z", position=1, resistance=F(1), inductance=None),
     "CircuitElement(role='Z', position=1, resistance=Fraction(1, 1), inductance=None,"
     " capacitance=None, nic_wrapped=False)",
     "nic_wrapped", True),
]

# fields that do not take part in equality or the hash
UNCOMPARED = {GainTag: "fixed", TransferFunction: "notes"}


def _ids(cases):
    return [case[0].__name__ for case in cases]


def test_all_fourteen_classes_are_covered():
    assert len({case[0] for case in CASES}) == 14


@pytest.mark.parametrize("cls, fields, args, kwargs, text, field, other", CASES, ids=_ids(CASES))
def test_construction_repr_and_match_args(cls, fields, args, kwargs, text, field, other):
    value = cls(*args)
    assert type(value) is cls
    assert repr(value) == text
    assert cls.__match_args__ == fields
    assert list(vars(value)) == list(fields)
    # keywords and the defaults build an instance equal in every compared field
    assert cls(**kwargs) == value


@pytest.mark.parametrize("cls, fields, args, kwargs, text, field, other", CASES, ids=_ids(CASES))
def test_equality_and_hash_over_the_compared_fields(cls, fields, args, kwargs, text, field, other):
    value = cls(*args)
    compared = tuple(getattr(value, f) for f in fields if f != UNCOMPARED.get(cls))
    assert hash(value) == hash(compared)
    assert value == cls(*args) and hash(value) == hash(cls(*args))
    changed = cls(**{f: getattr(value, f) for f in fields} | {field: other})
    assert changed != value
    assert not (changed == value)
    # another class, or the tuple of the same values, is never equal
    assert value.__eq__(compared) is NotImplemented
    assert value != compared
    stranger = GRID if cls is not FrequencyGrid else ELEMENT
    assert value.__eq__(stranger) is NotImplemented
    assert value != stranger


@pytest.mark.parametrize("cls, fields, args, kwargs, text, field, other", CASES, ids=_ids(CASES))
def test_fields_refuse_assignment_and_deletion(cls, fields, args, kwargs, text, field, other):
    value = cls(*args)
    with pytest.raises(AttributeError):
        setattr(value, field, other)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown = 1
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields, args, kwargs, text, field, other", CASES, ids=_ids(CASES))
def test_pickle_and_copy_round_trip(cls, fields, args, kwargs, text, field, other):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value)
        # the uncompared fields come back too
        assert repr(twin) == text


def test_notes_and_fixed_take_no_part_in_equality():
    tag = GainTag("Kp^mu", 0.5, (("Kp", F(1, 4)),))
    assert tag == GainTag("Kp^mu", 0.5) == GainTag("Kp^mu", 0.5, (("mu", F(1, 2)),))
    assert hash(tag) == hash(GainTag("Kp^mu", 0.5)) == hash(("Kp^mu", 0.5))
    tf = TransferFunction((F(1),), (F(1), F(1)), "rational", tag, ("pade-defect=1",))
    bare = TransferFunction((F(1),), (F(1), F(1)), "rational", GainTag("Kp^mu", 0.5))
    assert tf == bare and hash(tf) == hash(bare)
    assert len({tf, bare}) == 1
