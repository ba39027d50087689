"""The CLI contract under drawn input: `main` exits 0, 2 or 3 and lets no
exception escape, for `realize`, `symbolic`, `compare`, `bode` and
`ladder --netlist`.

Each test drives `cli.main` in-process with a fixed budget. The draws stay
inside caps that keep clear of defects and open questions recorded in the
ROADMAP, so a failure here is a new escape:

- order <= 8 and points-per-decade <= 20, since resource bounds are still
  open (item 5); points-per-decade is also drawn past the grid bound
  (freqresp.MAX_GRID_POINTS, up to 401 digits), which no sweep may take:
  `compare` then exits 2, and `bode` 2, or 3 on a document whose
  denominator is zero;
- controller parameters are at most 1e+-99 in size, which keeps every
  order-8 coefficient under CPython's 4300-digit int-to-str cap (item 5);
- no Carlson at q = 4 (lambda = 1/4, 3/4) with 5 or more iterations, whose
  sweep overflows (item 6). This cap does not cover every overflow: inside
  the degree budget, lambda = 1/2 at order 7 or 8 and lambda = 1/3 or 2/3
  at order 6 also exit 1 with OverflowError, and the draws can reach them
  (`test_cli.py` pins lambda = 1/3 at order 6 as a strict xfail until
  item 6 lands);
- `ladder` reads only documents that `realize` writes at order <= 4 with
  parameters at most 1e+-30 in size, and documents of at most 3 numbers a
  side with exponents at most 300 in size. A rung past the 4300-digit cap
  still escapes as ValueError (item 5). Over these strategies, both drawn
  and at their extremes, the largest rungs found have about 2,700 and
  3,630 digits; order 4 at 1e+-99, or exponents of 400, pass the cap.
"""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fracrat.cli import main  # noqa: E402
from fracrat.freqresp import MAX_GRID_POINTS  # noqa: E402

BUDGET = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

_NON_FINITE = ("nan", "NaN", "-nan", "inf", "-inf", "+inf", "Infinity", "-Infinity")
_MALFORMED = ("", " ", "abc", "1/", "/2", "1/0", "0/0", "1//2", "1e", "--1", "0x10", "1_0")


def _rationals(limit):
    return st.builds(
        "{}/{}".format, st.integers(-limit, limit), st.integers(-limit, limit)
    )


def _numbers(max_exp):
    """Number spellings: rationals, decimals, exponents, NaN and inf,
    malformed text; exponents up to max_exp in size."""
    return st.one_of(
        _rationals(10**6),
        st.integers(-10**6, 10**6).map(str),
        st.decimals(allow_nan=False, allow_infinity=False, places=6).map(str),
        st.builds("{}e{}".format, st.integers(-99, 99), st.integers(-max_exp, max_exp)),
        st.sampled_from(_NON_FINITE + _MALFORMED),
    )


_PARAM = _numbers(99)
_FREQ = st.one_of(
    st.floats(min_value=1e-6, max_value=1e6).map(repr),
    st.sampled_from(("1e-300", "1e300", "5e-324", "1e-200", "1e200", "1.7e308", "0", "-1")),
    st.sampled_from(_NON_FINITE + _MALFORMED),
)
_ORDER = st.one_of(st.integers(1, 8).map(str), st.sampled_from(("0", "-2", "x", "", "1.5")))
_PPD = st.one_of(
    st.integers(1, 20).map(str),
    st.sampled_from(("0", "-1", "x")),
    st.integers(MAX_GRID_POINTS + 1, 10**400).map(str),
)
_RAT_FLAGS = ("--lambda", "--mu", "--alpha", "--x", "--kp", "--ki", "--kd", "--kc", "--T")
_METHODS = ("cfe-low", "cfe-high", "oustaloup", "mod-oustaloup", "carlson")


def _too_dense(argv):
    """Whether argv asks for more points per decade than a grid may have."""
    density = dict(zip(argv, argv[1:])).get("--points-per-decade", "")
    return density.isdigit() and int(density) > MAX_GRID_POINTS


def _optional(flag, values):
    return st.one_of(st.just(()), values.map(lambda v: (flag, v)))


def _run(argv):
    """main's exit code, with its output kept off the test's streams."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    assert rc in (0, 2, 3), argv
    return rc


@st.composite
def _controller_argv(draw):
    argv = ["--controller", draw(st.sampled_from(("diffint", "fopid", "fopd", "leadlag", "pid")))]
    argv += ["--order", draw(_ORDER)]
    for flag, value in draw(st.dictionaries(st.sampled_from(_RAT_FLAGS), _PARAM, max_size=6)).items():
        argv += [flag, value]
    argv += draw(_optional("--range", st.sampled_from(("low", "high", "mid"))))
    argv += draw(_optional("--sign", st.sampled_from(("integrator", "differentiator", "both"))))
    if draw(st.booleans()):
        argv.append("--no-meta")
    return argv


@st.composite
def _sweep_argv(draw):
    argv = ["--fmin", draw(_FREQ), "--fmax", draw(_FREQ)]
    argv += draw(_optional("--points-per-decade", _PPD))
    argv += draw(_optional("--unit", st.sampled_from(("hz", "rad", "octave"))))
    return argv


@BUDGET
@given(st.sampled_from(("realize", "symbolic")), _controller_argv(), st.booleans())
# a --float document whose coefficients pass float range
@example("realize", ["--controller", "diffint", "--order", "8", "--lambda", "1e-40"], True)
def test_construction_commands_keep_the_exit_contract(command, argv, as_float):
    if command == "realize" and as_float:
        argv = argv + ["--float"]
    _run([command] + argv)


@st.composite
def _compare_argv(draw):
    lam = draw(st.one_of(_PARAM, st.sampled_from(("1/2", "1/3", "1/4", "2/3", "3/4", "1"))))
    order = draw(_ORDER)
    methods = draw(st.lists(st.sampled_from(_METHODS + ("bogus", "")), min_size=1, max_size=6))
    try:
        q, n = Fraction(lam).denominator, int(order)
    except (ValueError, ZeroDivisionError):
        q = n = 0
    assume(not ("carlson" in methods and q == 4 and n >= 5))
    argv = ["compare", "--lambda", lam, "--order", order, "--methods", ",".join(methods)]
    argv += draw(_sweep_argv())
    argv += draw(_optional("--T", _PARAM))
    argv += draw(_optional("--omega-b", _FREQ))
    argv += draw(_optional("--omega-h", _FREQ))
    return argv


@BUDGET
@given(_compare_argv(), st.booleans())
# an overflowing rung that the budget above finds only now and then
@example(
    ["compare", "--lambda", "1/2", "--order", "1", "--methods", "mod-oustaloup",
     "--fmin", "1", "--fmax", "2", "--omega-h", "1e300"],
    False,
)
def test_compare_keeps_the_exit_contract(argv, with_report):
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["-o", os.path.join(tmp, "sweep.csv")]
        if with_report:
            argv += ["--report", os.path.join(tmp, "fit.json")]
        rc = _run(argv)
    assert rc == 2 or not _too_dense(argv), argv


_COEFF = st.one_of(
    _numbers(999),
    st.sampled_from(("1e999", "-1e999", "1e-999", "1e5000", "9" * 5000)),
    st.integers(-10**400, 10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.none(),
    st.lists(st.integers(), max_size=2),
)

_DOCUMENT = st.fixed_dictionaries(
    {
        "format": st.sampled_from(("tf-document", "symbolic-tf", 1)),
        "ring": st.sampled_from(("rational", "float", "symbolic", None)),
    },
    optional={
        "variable": st.sampled_from(("s", "z")),
        "num": st.one_of(st.lists(_COEFF, max_size=9), _COEFF),
        "den": st.one_of(st.lists(_COEFF, max_size=9), _COEFF),
        "gain": st.one_of(
            st.none(),
            st.fixed_dictionaries({"label": st.text(max_size=5)}, optional={"value": _COEFF}),
            st.just("Kp^mu"),
        ),
        "notes": st.one_of(st.lists(st.text(max_size=5), max_size=3), st.just("x"), st.just([1])),
    },
)


_UNIT = st.builds(lambda p, q: f"{min(p, q)}/{max(p, q)}", st.integers(1, 99), st.integers(1, 99))


def _flags(**values):
    return st.tuples(*(st.tuples(st.just("--" + k), v) for k, v in values.items())).map(
        lambda pairs: [x for pair in pairs for x in pair]
    )


def _realizable(max_exp):
    """Flags of a realization that `realize` accepts, with its positive
    parameters at most 1e+-max_exp in size."""
    positive = st.one_of(
        st.builds("{}/{}".format, st.integers(1, 10**6), st.integers(1, 10**6)),
        st.builds("1e{}".format, st.integers(-max_exp, max_exp)),
    )
    gain = st.one_of(positive, st.just("0"))
    return st.one_of(
        st.tuples(
            _flags(controller=st.just("diffint"), **{"lambda": _UNIT}),
            st.one_of(st.just([]), _flags(range=st.just("high"), T=positive)),
            _optional("--sign", st.sampled_from(("integrator", "differentiator"))).map(list),
        ).map(lambda parts: sum(parts, [])),
        _flags(controller=st.just("fopid"), kp=gain, ki=gain, kd=gain, mu=_UNIT, **{"lambda": _UNIT}),
        _flags(controller=st.just("fopd"), kp=positive, kd=positive, mu=st.one_of(_UNIT, st.just("3/2"))),
        _flags(controller=st.just("leadlag"), kc=positive, x=_UNIT, alpha=st.one_of(_UNIT, st.just("0")),
               **{"lambda": positive}),
    )


def _realized(draw, max_exp, max_order):
    """The bytes of the tf-document that `realize` writes for drawn flags."""
    argv = ["realize"] + draw(_realizable(max_exp)) + ["--order", str(draw(st.integers(1, max_order)))]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tf.json")
        assert _run(argv + ["-o", path]) == 0, argv
        with open(path, "rb") as handle:
            return handle.read()


@st.composite
def _bode_input(draw):
    """The bytes of a tf-document: one that `realize` emitted, a drawn
    document, or raw bytes."""
    kind = draw(st.sampled_from(("realized", "drawn", "raw")))
    if kind == "realized":
        return _realized(draw, 99, 8)
    if kind == "drawn":
        return json.dumps(draw(_DOCUMENT)).encode()
    return draw(
        st.one_of(
            st.binary(max_size=40),
            st.sampled_from((b"[" * 100000, b'{"format": "tf-document", "num": [' + b"9" * 5000 + b"]}")),
        )
    )


@BUDGET
@given(_bode_input(), _sweep_argv())
def test_bode_keeps_the_exit_contract(document, sweep):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tf.json")
        with open(path, "wb") as handle:
            handle.write(document)
        rc = _run(["bode", "--tf", path] + sweep + ["-o", os.path.join(tmp, "bode.csv")])
    # a document with a zero denominator exits 3 before the grid is read
    assert rc in (2, 3) or not _too_dense(sweep), sweep


@st.composite
def _ladder_input(draw):
    """The bytes of a tf-document: one that `realize` emitted at order <= 4
    with parameters at most 1e+-30 in size, or one of at most 3 drawn
    numbers a side with exponents at most 300 in size."""
    if draw(st.booleans()):
        return _realized(draw, 30, 4)
    side = st.lists(_numbers(300), max_size=3)
    return json.dumps({"format": "tf-document", "num": draw(side), "den": draw(side)}).encode()


@BUDGET
@given(_ladder_input())
# a rung value past float range, and two that a float rounds to 0
@example(b'{"format": "tf-document", "num": ["1e400"], "den": ["1"]}')
@example(b'{"format": "tf-document", "num": ["1e-400", "1"], "den": ["1"]}')
@example(b'{"format": "tf-document", "num": ["1"], "den": ["1e-400", "1"]}')
def test_ladder_netlist_keeps_the_exit_contract(document):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tf.json")
        with open(path, "wb") as handle:
            handle.write(document)
        netlist = os.path.join(tmp, "ladder.cir")
        rc = _run(["ladder", "--tf", path, "--netlist", netlist, "-o", os.path.join(tmp, "ladder.json")])
        # a refusal writes nothing
        assert rc == 0 or not os.path.exists(netlist)
