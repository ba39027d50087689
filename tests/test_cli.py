"""Command-line interface: document formats, determinism, and exit codes."""

import argparse
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fracrat
from fracrat import (
    FOPID,
    BaselineConfig,
    Differintegrator,
    FOPDBracket,
    GainTag,
    LadderElement,
    LadderNetwork,
    LeadLag,
    ParamPoly,
    ValidationError,
    bode,
    ladder_to_tf,
    log_grid,
    make_tf,
    modified_oustaloup,
    oustaloup,
    realize_differintegrator,
    realize_fopd_bracket,
    realize_fopid,
    realize_leadlag,
    tf_equal,
)
from fracrat import cli
from fracrat.cli import (
    build_parser,
    emit_symbolic_document,
    emit_tf_document,
    main,
    parse_tf_document,
)
from fracrat.exact import SYMBOLS


SRC = Path(fracrat.__file__).resolve().parents[1]
PERFBENCH = SRC.parent / "perfbench"


def run(*argv):
    return main(list(argv))


def run_fresh(code):
    """Run `code` in a new interpreter that imports this fracrat."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_realize_half_integrator_document(tmp_path):
    out = tmp_path / "tf.json"
    rc = run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3", "-o", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "tf-document"
    assert doc["variable"] == "s"
    assert doc["ring"] == "rational"
    assert doc["num"] == ["64", "112", "56", "7"]
    assert doc["den"] == ["64", "80", "24", "1"]
    assert doc["gain"] is None
    assert doc["notes"] == []
    assert doc["meta"] == {
        "command": "realize",
        "controller": "diffint",
        "order": 3,
        "lambda": "1/2",
    }


def test_realize_writes_stdout_by_default(capsys):
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "2") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["format"] == "tf-document"


@pytest.mark.parametrize(
    "flags",
    [
        ("--controller", "diffint", "--lambda", "1"),
        ("--controller", "diffint", "--lambda", "1", "--range", "high"),
        ("--controller", "leadlag", "--kc", "1", "--lambda", "1", "--x", "1/2", "--alpha", "1"),
    ],
)
def test_integer_exponent_documents_note_the_pade_defect(tmp_path, flags):
    # the kernel is rational at an integer exponent: the [3/3] system is
    # singular and the reduced denominator has degree 1
    out = tmp_path / "tf.json"
    assert run("realize", *flags, "--order", "3", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["notes"] == ["pade-defect=2"]
    assert len(doc["den"]) == 2


def test_output_is_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    argv = ("realize", "--controller", "leadlag", "--kc", "2", "--lambda", "1/2", "--x", "1/4",
            "--alpha", "1/2", "--order", "3")
    assert run(*argv, "-o", str(a)) == 0
    assert run(*argv, "-o", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_meta_strips_metadata(tmp_path):
    out = tmp_path / "tf.json"
    run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "2", "--no-meta", "-o", str(out))
    assert "meta" not in json.loads(out.read_text())


def test_document_round_trip_is_identity():
    tf = make_tf((7, 56, 112, 64), (1, 24, 80, 64), notes=("pade-defect=1",))
    text = emit_tf_document(tf, meta={"k": 1})
    back, meta = parse_tf_document(text)
    assert back == tf
    assert back.notes == tf.notes
    assert meta == {"k": 1}
    # and the serialized form is a fixed point
    assert emit_tf_document(back, meta=meta) == text


def test_float_documents_round_trip(tmp_path):
    out = tmp_path / "tf.json"
    run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3", "--float", "-o", str(out))
    doc = json.loads(out.read_text())
    assert doc["ring"] == "float"
    assert doc["num"][0] == "64"
    back, _ = parse_tf_document(out.read_text())
    assert back.ring == "float"
    # 15 significant digits survive the float round trip unchanged
    assert emit_tf_document(back) == emit_tf_document(back, as_float=True)


def test_gain_tag_survives_the_document(tmp_path):
    out = tmp_path / "tf.json"
    run("realize", "--controller", "fopd", "--kp", "2", "--kd", "3", "--mu", "6/5", "--order", "2",
        "-o", str(out))
    doc = json.loads(out.read_text())
    assert doc["gain"]["label"] == "Kp^mu"
    assert doc["gain"]["value"] == pytest.approx(2.0**1.2)
    back, _ = parse_tf_document(out.read_text())
    assert back.gain == GainTag("Kp^mu", doc["gain"]["value"])


def test_symbolic_document_all_symbols(tmp_path):
    out = tmp_path / "sym.json"
    rc = run("symbolic", "--controller", "diffint", "--order", "4", "-o", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "symbolic-tf"
    assert doc["num"] == [
        "1680",
        "840*lam + 3360",
        "180*lam^2 + 1260*lam + 2160",
        "20*lam^3 + 180*lam^2 + 520*lam + 480",
        "lam^4 + 10*lam^3 + 35*lam^2 + 50*lam + 24",
    ]
    assert doc["den"][1] == "-840*lam + 3360"


def test_symbolic_document_partial_symbols(tmp_path):
    out = tmp_path / "sym.json"
    rc = run("symbolic", "--controller", "fopd", "--mu", "1/2", "--order", "2", "-o", str(out))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["gain"] == {"label": "Kp^mu", "value": None}
    assert any("Kd" in c for c in doc["num"])


@pytest.mark.parametrize(
    "argv, bound",
    [
        (("--controller", "fopid", "--order", "5"), 142),
        (("--controller", "fopd", "--order", "6"), 53),
        (("--controller", "diffint", "--order", "6", "--range", "high"), 5),
        (("--controller", "fopid", "--order", "5", "--range", "high"), 142),
    ],
)
def test_symbolic_commands_count_few_parampoly_products(argv, bound, tmp_path, monkeypatch):
    """A count, not a time: the kernel lifted once from ints in the
    exponent keeps these commands at `bound` ParamPoly products, where one
    ParamPoly times a Fraction per kernel coefficient took 194 and 156,
    and the high band, taken at T = 1 without a change of variable, makes
    none of the 12 and 20 products by 1 that homogenizing by T = 1 did."""
    calls = []
    original = ParamPoly.__mul__

    def counting(self, other):
        calls.append(None)
        return original(self, other)

    monkeypatch.setattr(ParamPoly, "__mul__", counting)
    monkeypatch.setattr(ParamPoly, "__rmul__", counting)
    assert run("symbolic", *argv, "-o", str(tmp_path / "sym.json")) == 0
    assert 0 < len(calls) <= bound


def test_symbolic_rejects_tf_document_emitter():
    sym = make_tf((ParamPoly.var("lam"),), (1,))
    with pytest.raises(ValidationError):
        emit_tf_document(sym)
    # but the symbolic document takes it
    assert json.loads(emit_symbolic_document(sym))["num"] == ["lam"]


def test_zero_tf_from_substitution_is_rational():
    # every gain zero leaves no symbol: the tf-document and bode take it
    sym = realize_fopid(FOPID(None, None, None, None, None), "low", 2)
    zero = sym.substitute({"Kp": 0, "Ki": 0, "Kd": 0})
    assert (zero.num, zero.den, zero.ring) == ((0,), (1,), "rational")
    assert make_tf((), (ParamPoly.var("lam"),)).ring == "rational"
    assert json.loads(emit_tf_document(zero))["num"] == ["0"]
    assert bode(zero, log_grid(1, 10, 1)).mag_db == (-math.inf, -math.inf)


def test_ladder_document_and_netlist(tmp_path):
    tf_file = tmp_path / "tf.json"
    run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3", "-o", str(tf_file))
    out = tmp_path / "ladder.json"
    net = tmp_path / "ladder.cir"
    rc = run("ladder", "--tf", str(tf_file), "-o", str(out), "--netlist", str(net))
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["format"] == "ladder"
    assert [(e["role"], e["g"], e["h"], e["nic"]) for e in doc["elements"]] == [
        ("Z", "1", "0", False),
        ("Y", "1/2", "2", False),
        ("Z", "-4", "-8", True),
        ("Y", "1", "2", False),
    ]
    assert doc["meta"] == {"command": "ladder", "tf": str(tf_file)}
    netlist = net.read_text()
    assert ".subckt ladder_nic1" in netlist
    assert netlist.endswith("* port n0 0\n")


def test_ladder_folds_numeric_gain(tmp_path):
    tf_file = tmp_path / "tf.json"
    tf_file.write_text(
        emit_tf_document(make_tf((1,), (1,), gain=GainTag("k", 3.0)))
    )
    out = tmp_path / "ladder.json"
    assert run("ladder", "--tf", str(tf_file), "-o", str(out), "--no-meta") == 0
    doc = json.loads(out.read_text())
    assert doc["elements"] == [
        {"role": "Z", "position": 1, "g": "3", "h": "0", "nic": False}
    ]


def test_ladder_rejects_symbolic_gain(tmp_path, capsys):
    # ladder and bode refuse a gain tag without a value with one message
    tf_file = tmp_path / "tf.json"
    tf_file.write_text(
        emit_tf_document(make_tf((1,), (1,), gain=GainTag("Kp^mu", None)))
    )
    assert run("ladder", "--tf", str(tf_file)) == 2
    assert capsys.readouterr().err == "error: gain tag 'Kp^mu' has no numeric value\n"
    assert run("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10") == 2
    assert capsys.readouterr().err == "error: gain tag 'Kp^mu' has no numeric value\n"


def test_ladder_non_affine_quotient_exits_3(tmp_path, capsys):
    tf_file = tmp_path / "tf.json"
    tf_file.write_text(emit_tf_document(make_tf((1, 0, 1), (1,))))
    assert run("ladder", "--tf", str(tf_file)) == 3
    # the zero TF has no expansion at all
    tf_file.write_text(json.dumps({"format": "tf-document", "num": ["0"], "den": ["1"]}))
    capsys.readouterr()
    assert run("ladder", "--tf", str(tf_file)) == 3
    assert capsys.readouterr().err == "error: degenerate expansion\n"


@pytest.mark.parametrize(
    "num, den, part",
    [
        (["1e400"], ["1"], "R1 of rung Z1"),  # past float range
        (["1e-400", "1"], ["1"], "L1 of rung Z1"),  # nonzero, but a float rounds it to 0
        (["1"], ["1e-400", "1"], "C1 of rung Y2"),
    ],
)
def test_ladder_netlist_refuses_a_value_a_float_cannot_hold(tmp_path, capsys, num, den, part):
    # the ladder document goes to stdout, and neither output is written
    tf_file = tmp_path / "tf.json"
    tf_file.write_text(json.dumps({"format": "tf-document", "num": num, "den": den}))
    cir = tmp_path / "ladder.cir"
    assert run("ladder", "--tf", str(tf_file), "--netlist", str(cir)) == 2
    assert capsys.readouterr() == ("", f"error: {part} has a value that a float cannot hold\n")
    assert not cir.exists()


@pytest.mark.parametrize(
    "flags",
    [
        # order 8 has coefficients past 15 significant digits, so the float
        # document's values differ from the exact realization
        ("--controller", "diffint", "--lambda", "37/100", "--order", "8"),
        ("--controller", "leadlag", "--kc", "2", "--lambda", "1/10", "--x", "1/20",
         "--alpha", "1/2", "--order", "3"),
    ],
)
def test_ladder_of_a_float_document(tmp_path, flags):
    tf_file = tmp_path / "tf.json"
    assert run("realize", *flags, "--float", "-o", str(tf_file)) == 0
    out = tmp_path / "ladder.json"
    assert run("ladder", "--tf", str(tf_file), "-o", str(out)) == 0
    tf_doc = json.loads(tf_file.read_text())
    assert tf_doc["ring"] == "float"
    # the rungs fold back to the float coefficients read binary-exactly,
    # with a numeric gain tag folded into the numerator
    num = [Fraction(float(c)) for c in reversed(tf_doc["num"])]
    den = [Fraction(float(c)) for c in reversed(tf_doc["den"])]
    if tf_doc["gain"] is not None:
        num = [Fraction(tf_doc["gain"]["value"]) * c for c in num]
    net = LadderNetwork(tuple(
        LadderElement(e["role"], Fraction(e["g"]), Fraction(e["h"]), e["position"])
        for e in json.loads(out.read_text())["elements"]
    ))
    assert tf_equal(ladder_to_tf(net), make_tf(tuple(num), tuple(den)))


def test_bode_csv_layout(tmp_path):
    tf_file = tmp_path / "tf.json"
    tf_file.write_text(emit_tf_document(make_tf((1,), (1,))))
    out = tmp_path / "sweep.csv"
    rc = run("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10",
             "--points-per-decade", "1", "--unit", "rad", "-o", str(out))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# ")
    meta = json.loads(lines[0][2:])
    assert meta["command"] == "bode"
    assert meta["unit"] == "rad"
    assert lines[1] == "freq,rad,mag_db,phase_deg"
    assert lines[2] == "1.0,rad,0.0,0.0"
    assert lines[3] == "10.0,rad,0.0,0.0"


def test_compare_csv_and_report(tmp_path):
    out = tmp_path / "cmp.csv"
    report = tmp_path / "report.json"
    rc = run("compare", "--lambda", "1/2", "--order", "2",
             "--methods", "cfe-low,carlson", "--fmin", "0.01", "--fmax", "1",
             "--points-per-decade", "2", "--unit", "rad",
             "-o", str(out), "--report", str(report))
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == (
        "freq,rad,ideal_mag_db,ideal_phase_deg,"
        "cfe_low_mag_db,cfe_low_phase_deg,carlson_mag_db,carlson_phase_deg"
    )
    first = lines[2].split(",")
    assert first[0] == "0.01"
    assert float(first[3]) == pytest.approx(-45.0)  # ideal phase of s^-1/2
    doc = json.loads(report.read_text())
    assert doc["format"] == "fit-report"
    assert doc["phase_tol_deg"] == 5.0
    assert set(doc["methods"]) == {"cfe-low", "carlson"}
    entry = doc["methods"]["cfe-low"]
    assert entry["max_phase_err_deg"] >= entry["mean_phase_err_deg"] >= 0.0
    assert entry["band"] == [0.01, 1.0]


def test_exit_codes_for_bad_input(tmp_path, capsys):
    # missing required parameter
    assert run("realize", "--controller", "fopd", "--kd", "1", "--mu", "1/2", "--order", "2") == 2
    assert "fopd needs --kp" in capsys.readouterr().err
    # flag that belongs to another controller
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--kp", "1", "--order", "2") == 2
    assert "--kp is not a diffint parameter" in capsys.readouterr().err
    # malformed rational, in a controller flag and in compare's own flags
    assert run("realize", "--controller", "diffint", "--lambda", "abc", "--order", "2") == 2
    assert capsys.readouterr().err == "error: --lambda expects a rational number, got 'abc'\n"
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--T", "abc",
               "--order", "2") == 2
    assert capsys.readouterr().err == "error: --T expects a rational number, got 'abc'\n"
    assert run("compare", "--lambda", "1/2", "--order", "2", "--methods", "cfe-high",
               "--T", "abc", "--fmin", "1", "--fmax", "10") == 2
    assert capsys.readouterr().err == "error: --T expects a rational number, got 'abc'\n"
    assert run("compare", "--lambda", "1/0", "--order", "2", "--methods", "cfe-low",
               "--fmin", "1", "--fmax", "10") == 2
    assert capsys.readouterr().err == "error: --lambda expects a rational number, got '1/0'\n"
    # unknown flag goes through the same channel
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "2", "--bogus") == 2
    # --range and --sign are scoped
    assert run("realize", "--controller", "fopd", "--kp", "1", "--kd", "1", "--mu", "1/2",
               "--order", "2", "--range", "low") == 2
    assert run("realize", "--controller", "leadlag", "--kc", "1", "--lambda", "1", "--x", "1/2",
               "--alpha", "1/2", "--order", "2", "--sign", "integrator") == 2
    # missing input file, and an output in a missing directory: the path
    # once, then the OS's text for the error
    capsys.readouterr()
    missing = tmp_path / "missing.json"
    assert run("ladder", "--tf", str(missing)) == 2
    assert capsys.readouterr().err == f"error: cannot read {missing}: {os.strerror(errno.ENOENT)}\n"
    out = tmp_path / "missing" / "x.json"
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3",
               "-o", str(out)) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {os.strerror(errno.ENOENT)}\n"
    assert not out.parent.exists()


def test_an_exponent_past_the_digit_cap_exits_2_at_once(tmp_path, capsys):
    # a flag and a tf-document coefficient: Fraction would build the power of
    # ten first, which takes seconds before the range check or the digit cap
    cap = sys.get_int_max_str_digits()
    tf_file = tmp_path / "tf.json"
    doc = {"format": "tf-document", "num": ["1e-9999999"], "den": ["1", "1"]}
    tf_file.write_text(json.dumps(doc))
    cases = (
        (("realize", "--controller", "diffint", "--lambda", "1e9999999", "--order", "3"),
         f"error: --lambda '1e9999999' has an exponent past {cap} in magnitude\n"),
        (("ladder", "--tf", str(tf_file)),
         f"error: coefficient '1e-9999999' has an exponent past {cap} in magnitude\n"),
        (("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10"),
         f"error: coefficient '1e-9999999' has an exponent past {cap} in magnitude\n"),
    )
    for argv, err in cases:
        start = time.perf_counter()
        assert run(*argv) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", err)


def test_a_document_past_float_range_or_the_digit_cap_exits_2_at_emit(tmp_path, capsys):
    # the parameters are in range, but the coefficients they give are not:
    # past float range for --float, or past the int-to-str digit cap
    cap = sys.get_int_max_str_digits()
    floats = "error: a coefficient is past float range; leave out --float for the exact document\n"
    digits = (
        f"error: a coefficient has more than {cap} digits, the int-to-str cap;"
        " PYTHONINTMAXSTRDIGITS=0 lifts it\n"
    )
    cases = (
        ("realize --controller diffint --lambda 1e-40 --order 8 --float", floats),
        ("realize --controller diffint --lambda 1e-300 --order 2 --float", floats),
        ("realize --controller diffint --lambda 1e-4000 --order 2", digits),
        ("symbolic --controller diffint --range high --T 1e-4000 --order 2", digits),
    )
    for line, err in cases:
        start = time.perf_counter()
        assert run(*line.split()) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr() == ("", err)
    # with the cap lifted, emit and parse agree on the long coefficients
    out = tmp_path / "long.json"
    sys.set_int_max_str_digits(0)
    try:
        assert run(*cases[2][0].split(), "-o", str(out)) == 0
        text = out.read_text()
        tf, meta = parse_tf_document(text)
        assert emit_tf_document(tf, meta=meta) == text
    finally:
        sys.set_int_max_str_digits(cap)
    with pytest.raises(ValidationError, match="bad coefficient"):
        parse_tf_document(text)


def test_documents_that_are_not_utf8_exit_2(tmp_path, capsys):
    tf_file = tmp_path / "latin1.json"
    tf_file.write_bytes(b"\xff\xfe")
    for argv in (("ladder", "--tf", str(tf_file)),
                 ("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10")):
        assert run(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot read {tf_file} as UTF-8\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""


def test_bode_rejects_non_finite_documents(tmp_path, capsys):
    good = json.loads(emit_tf_document(make_tf((1.0,), (1.0, 1.0))))
    assert good["ring"] == "float"
    bad_docs = []
    for text in ("inf", "-inf", "nan", "1e400"):
        bad_docs.append(dict(good, num=[text]))
        bad_docs.append(dict(good, den=["1", text]))
    bad_docs.append(dict(good, gain={"label": "g", "value": "inf"}))
    bad_docs.append(dict(good, gain={"label": "g", "value": "abc"}))
    # exact, but past the floats the sweep runs in
    bad_docs.append(dict(good, ring="rational", num=["1e999"]))
    for i, doc in enumerate(bad_docs):
        tf_file = tmp_path / f"bad{i}.json"
        tf_file.write_text(json.dumps(doc))
        out = tmp_path / f"bad{i}.csv"
        rc = run("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10", "-o", str(out))
        assert rc == 2, doc
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


def test_bode_refuses_an_integer_coefficient_past_float_range(tmp_path, capsys):
    # the reader's int path and make_tf's int coefficients keep the one
    # refusal line of an exact coefficient the sweep cannot take
    tf_file = tmp_path / "big.json"
    doc = {"format": "tf-document", "ring": "rational", "num": ["1" + "0" * 400], "den": ["1"]}
    tf_file.write_text(json.dumps(doc))
    out = tmp_path / "big.csv"
    rc = run("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10", "-o", str(out))
    assert rc == 2
    assert capsys.readouterr().err == f"error: {tf_file} has a coefficient past float range\n"
    assert not out.exists()


def test_a_long_refused_coefficient_is_echoed_in_part(tmp_path, capsys):
    # 5000 digits: past the int-to-str cap in the rational ring and past
    # float range in the float ring; the one error line quotes the first
    # 40 characters and says how long the coefficient is
    digits = "1" * 5000
    cases = (
        ("rational", f"error: bad coefficient {digits[:40]!r}... (5000 characters)\n"),
        ("float", f"error: non-finite coefficient {digits[:40]!r}... (5000 characters)\n"),
    )
    for ring, err in cases:
        tf_file = tmp_path / f"{ring}.json"
        doc = {"format": "tf-document", "ring": ring, "num": [digits], "den": ["1", "1"]}
        tf_file.write_text(json.dumps(doc))
        for argv in (("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10"),
                     ("ladder", "--tf", str(tf_file))):
            assert run(*argv) == 2
            assert capsys.readouterr() == ("", err)


def test_a_long_ring_or_method_name_is_echoed_in_part(tmp_path, capsys):
    # 100,000 characters of an unknown ring or --methods entry: one short
    # error line, as for a long coefficient
    name = "x" * 100_000
    tf_file = tmp_path / "ring.json"
    doc = {"format": "tf-document", "ring": name, "num": ["1"], "den": ["1"]}
    tf_file.write_text(json.dumps(doc))
    assert run("bode", "--tf", str(tf_file), "--fmin", "1", "--fmax", "10") == 2
    want = f"error: cannot parse coefficients in ring {name[:40]!r}... (100000 characters)\n"
    assert capsys.readouterr() == ("", want)
    assert run("compare", "--lambda", "1/2", "--order", "2", "--methods", name,
               "--fmin", "1", "--fmax", "10") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: unknown method {name[:40]!r}... (100000 characters); ")
    assert err.count("\n") == 1 and len(err) < 200


def test_sweeps_reject_a_non_finite_band(tmp_path, capsys):
    tf_file = tmp_path / "halfint.json"
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "2",
               "-o", str(tf_file)) == 0
    out = tmp_path / "sweep.csv"
    for fmin, fmax in (
        ("nan", "10"), ("1e-3", "inf"), ("1", "nan"), ("inf", "inf"), ("1e-200", "1e200"),
        ("1", "1.7e308"),
    ):
        band = ("--fmin", fmin, "--fmax", fmax, "-o", str(out))
        for argv in (
            ("bode", "--tf", str(tf_file)) + band,
            ("compare", "--lambda", "1/2", "--order", "2", "--methods", "cfe-low") + band,
        ):
            assert run(*argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err
            assert not out.exists()
    # a baseline band edge past the floats must not yield all-nan columns
    report = tmp_path / "fit.json"
    for omega_h in ("inf", "1e400"):
        rc = run("compare", "--lambda", "1/2", "--order", "2", "--methods", "oustaloup",
                 "--fmin", "1", "--fmax", "10", "--omega-h", omega_h,
                 "-o", str(out), "--report", str(report))
        assert rc == 2, omega_h
        assert capsys.readouterr().err == "error: need 0 < omega_b < omega_h < inf\n"
        assert not out.exists() and not report.exists()
    # nor must a finite band whose rungs, coefficients, anchor or anchor gain leave the floats
    for order, method, fmax, edges in (
        ("1", "mod-oustaloup", "2", ("--omega-h", "1e300")),
        ("3", "oustaloup", "10", ("--omega-b", "1e-300")),
        ("3", "oustaloup", "10", ("--omega-h", "1e200")),
        ("3", "mod-oustaloup", "10", ("--omega-h", "1e200")),
        ("2", "oustaloup", "10", ("--omega-b", "5e-324")),
        ("2", "mod-oustaloup", "10", ("--omega-b", "1e-300", "--omega-h", "1e300")),
        ("8", "oustaloup", "10", ("--omega-b", "1e-150", "--omega-h", "1e150")),
        ("1", "oustaloup", "100", ("--omega-b", "1e80", "--omega-h", "1e100")),
    ):
        rc = run("compare", "--lambda", "1/2", "--order", order, "--methods", method,
                 "--fmin", "1", "--fmax", fmax, *edges, "-o", str(out), "--report", str(report))
        assert rc == 2, edges
        err = capsys.readouterr().err
        assert err.startswith("error: baseline band [") and err.endswith(" is past float range\n")
        assert not out.exists() and not report.exists()


def test_sweeps_reject_a_grid_without_points(tmp_path, capsys):
    tf_file = tmp_path / "halfint.json"
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "2",
               "-o", str(tf_file)) == 0
    out = tmp_path / "sweep.csv"
    band = ("--fmin", "1", "--fmax", "10", "--points-per-decade", "0", "-o", str(out))
    for argv in (
        ("bode", "--tf", str(tf_file)) + band,
        ("compare", "--lambda", "1/2", "--order", "2", "--methods", "cfe-low") + band,
    ):
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == "error: points_per_decade must be at least 1\n"
        assert not out.exists()


@pytest.mark.parametrize("density", ["100000000", "1" + "0" * 400], ids=["1e8", "1e400"])
def test_sweeps_refuse_a_density_past_the_grid_bound(tmp_path, capsys, density):
    # 6e8 points would take 4.5 GiB, and a 401-digit density overflows a
    # float; both are refused before any grid is built
    tf_file = tmp_path / "halfint.json"
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "2",
               "-o", str(tf_file)) == 0
    out = tmp_path / "sweep.csv"
    band = ("--fmin", "1e-3", "--fmax", "1e3", "--points-per-decade", density, "-o", str(out))
    for argv in (
        ("bode", "--tf", str(tf_file)) + band,
        ("compare", "--lambda", "1/2", "--order", "2", "--methods", "cfe-low") + band,
    ):
        assert run(*argv) == 2, argv
        assert capsys.readouterr().err == "error: points_per_decade must be at most 1000000\n"
        assert not out.exists()


def test_time_constant_only_applies_to_the_high_band(capsys):
    # --T is refused wherever it does not apply, as --range and --sign are
    for argv in (
        ("symbolic", "--controller", "diffint", "--order", "3", "--T", "2"),
        ("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3", "--T", "2"),
    ):
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", "error: --T only applies to --range high\n")
    # in the high band it applies to the symbolic form too
    argv = ("--controller", "diffint", "--order", "3", "--range", "high", "--T", "1/10")
    assert run("symbolic", *argv, "--no-meta") == 0
    spec = Differintegrator(None, freq_range="high", T=Fraction(1, 10))
    assert capsys.readouterr() == (emit_symbolic_document(realize_differintegrator(spec, 3)), "")


def test_compare_rejects_unsupported_fixed_point_order(capsys):
    rc = run("compare", "--lambda", "3/10", "--order", "2", "--methods", "carlson",
             "--fmin", "0.01", "--fmax", "1", "--unit", "rad")
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: Carlson needs lam = m/q with q in {2, 3, 4}; got 3/10\n"
    )


def test_compare_refuses_a_carlson_degree_past_the_budget(capsys):
    rc = run("compare", "--lambda", "1/4", "--order", "7", "--methods", "carlson",
             "--fmin", "0.01", "--fmax", "1", "--unit", "rad")
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Carlson degree" in err
    assert "Traceback" not in err


@pytest.mark.xfail(strict=True, raises=OverflowError,
                   reason="ROADMAP item 6: bode overflows on the coefficients of a deep Carlson iterate")
def test_compare_sweeps_a_deep_carlson_iterate(tmp_path):
    # degree 1365 is inside the 4096 budget; the exact TF equals s^-1/3 at
    # these points to every printed digit
    out = tmp_path / "cmp.csv"
    rc = run("compare", "--lambda", "1/3", "--order", "6", "--methods", "carlson",
             "--fmin", "0.01", "--fmax", "1", "--unit", "rad", "-o", str(out))
    assert rc == 0
    rows = [[float(c) for c in line.split(",")[2:]] for line in out.read_text().splitlines()[2:]]
    assert rows
    for ideal_mag, ideal_phase, mag, phase in rows:
        assert mag == pytest.approx(ideal_mag, abs=1e-6)
        assert phase == pytest.approx(ideal_phase, abs=1e-6)


_COMPARE_BAND = ("--fmin", "0.5", "--fmax", "50", "--points-per-decade", "3")


@pytest.mark.parametrize("unit", ["hz", "rad"])
@pytest.mark.parametrize(
    "flags",
    [(), ("--T", "1/10"), ("--omega-b", "2"), ("--omega-h", "300"),
     ("--T", "7/2", "--omega-b", "2", "--omega-h", "300")],
)
def test_compare_columns_are_the_bode_of_each_method(tmp_path, unit, flags):
    # each column is the sweep of the TF built directly, from the flags given
    # or their defaults: T = 1 and the grid's ends in rad/s
    out = tmp_path / "cmp.csv"
    rc = run("compare", "--lambda", "1/3", "--order", "3", "--methods",
             "cfe-high,oustaloup,mod-oustaloup", *_COMPARE_BAND, "--unit", unit, *flags,
             "-o", str(out))
    assert rc == 0
    given = dict(zip(flags[::2], flags[1::2]))
    lam = Fraction(1, 3)
    T = Fraction(given.get("--T", 1))
    scale = 2 * math.pi if unit == "hz" else 1.0
    omega_b = float(given.get("--omega-b", 0.5 * scale))
    omega_h = float(given.get("--omega-h", 50 * scale))
    cfg = BaselineConfig(lam, omega_b, omega_h, 3)
    grid = log_grid(0.5, 50, 3, unit)
    sweeps = [
        bode(realize_differintegrator(Differintegrator(lam, freq_range="high", T=T), 3), grid),
        bode(oustaloup(cfg).reciprocal(), grid),
        bode(modified_oustaloup(cfg).reciprocal(), grid),
    ]
    lines = out.read_text().splitlines()
    assert lines[1] == f"freq,{unit},ideal_mag_db,ideal_phase_deg," + ",".join(
        f"{m}_{part}" for m in ("cfe_high", "oustaloup", "mod_oustaloup")
        for part in ("mag_db", "phase_deg")
    )
    for i, line in enumerate(lines[2:]):
        want = [v for sweep in sweeps for v in (sweep.mag_db[i], sweep.phase_deg[i])]
        assert [float(c) for c in line.split(",")[4:]] == want
    assert len(lines) == 2 + len(grid)
    meta = json.loads(lines[0][2:])
    recorded = {key: meta[key] for key in ("T", "omega_b", "omega_h") if key in meta}
    assert recorded == {
        key: float(given[flag]) if key != "T" else given[flag]
        for key, flag in (("T", "--T"), ("omega_b", "--omega-b"), ("omega_h", "--omega-h"))
        if flag in given
    }


def test_compare_refuses_a_flag_no_method_reads(tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    for methods, flags, err in (
        ("cfe-low,oustaloup,carlson", ("--T", "2"), "--T only applies to cfe-high"),
        ("cfe-low,cfe-high", ("--omega-b", "2"), "--omega-b only applies to oustaloup or mod-oustaloup"),
        ("carlson", ("--omega-h", "300"), "--omega-h only applies to oustaloup or mod-oustaloup"),
    ):
        rc = run("compare", "--lambda", "1/2", "--order", "2", "--methods", methods, *_COMPARE_BAND,
                 *flags, "-o", str(out))
        assert rc == 2, flags
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not out.exists()


def test_compare_validates_method_list():
    base = ("compare", "--lambda", "1/2", "--order", "2", "--fmin", "0.1",
            "--fmax", "1", "--unit", "rad")
    assert run(*base, "--methods", "cfe-low,cfe-low") == 2
    assert run(*base, "--methods", "newton") == 2
    assert run(*base, "--methods", ",") == 2


def test_repeated_main_calls_are_stateless(capsys):
    # a call to main in a process that has run other commands, some of them
    # with other flags or failing, prints exactly what it prints on its own
    leadlag = ("--controller", "leadlag", "--kc", "2", "--lambda", "1/2", "--x", "1/4",
               "--alpha", "1/2", "--order", "3")
    diffint = ("realize", "--controller", "diffint", "--lambda", "1/2", "--order")
    calls = [
        ("realize", *leadlag, "--float"),
        ("realize", *leadlag),
        ("realize", *leadlag, "--no-meta"),
        ("realize", *leadlag),
        (*diffint, "x"),
        (*diffint, "3"),
        ("symbolic", "--controller", "fopid", "--order", "2"),
        ("compare", "--lambda", "1/2", "--order", "2", "--methods", "cfe-low,carlson",
         "--fmin", "0.1", "--fmax", "1", "--points-per-decade", "2", "--unit", "rad"),
    ]

    def call(argv):
        rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    forward = [call(argv) for argv in calls]
    backward = [call(argv) for argv in reversed(calls)][::-1]
    assert [rc for rc, _, _ in forward] == [0, 0, 0, 0, 2, 0, 0, 0]
    assert "invalid int value: 'x'" in forward[4][2]
    assert forward[0][1] != forward[1][1] and forward[2][1] != forward[3][1]
    assert forward == backward
    assert build_parser() is not build_parser()


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0


_COMMAND_NAMES = ("realize", "symbolic", "ladder", "bode", "compare")

# argv that stop in the parser: every help text, a missing or unknown
# command, and each kind of flag error
_PARSER_STOPS = [
    ("--help",),
    *((name, "--help") for name in _COMMAND_NAMES),
    (),
    ("bogus",),
    ("--bogus",),
    *((name,) for name in _COMMAND_NAMES),
    ("realize", "--controller", "diffint", "--order", "x"),
    ("compare", "--lambda", "1/2", "--order", "2", "--methods", "cfe-low",
     "--fmin", "1", "--fmax", "10", "--points-per-decade", "x"),
    ("realize", "--controller", "pid", "--order", "3"),
    ("bode", "--tf", "tf.json", "--fmin", "1", "--fmax", "10", "--unit", "deg"),
    ("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "2", "extra"),
    # an option of another command that shares option groups with this one
    ("symbolic", "--controller", "fopid", "--order", "2", "--float"),
    ("ladder", "--tf", "t.json", "--unit", "hz"),
]


@pytest.mark.parametrize("argv", _PARSER_STOPS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_stops_where_the_full_parser_stops(argv, capsys, monkeypatch):
    # main prints, on the same stream and with the same exit code, what the
    # parser holding every subcommand, with argparse's own help formatter,
    # prints for the same argv, at terminal widths that wrap the help texts
    # differently

    def outcome(call):
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def full_parser():
        with monkeypatch.context() as patch:
            patch.setattr(cli._Parser, "__init__", argparse.ArgumentParser.__init__)
            parser = build_parser()
        try:
            parser.parse_args(list(argv))
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        raise AssertionError(f"{argv} parsed without stopping")

    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        expected = outcome(full_parser)
        assert expected[0] in (0, 2)
        assert outcome(lambda: main(list(argv))) == expected


def test_one_subcommand_parser_gives_the_full_namespace():
    # a command's flat parser reads the flags after the command name to the
    # namespace the full tree gives for the whole argv: every flag, default,
    # the runner and the command name, and no flag has left either parser
    controller = {"controller", "order", "lam", "mu", "alpha", "x", "Kp", "Ki", "Kd", "Kc",
                  "T", "range", "sign"}
    output = {"command", "run", "output", "no_meta"}
    sweep = {"fmin", "fmax", "points_per_decade", "unit"}
    dests = {
        "realize": controller | {"as_float"} | output,
        "symbolic": controller | output,
        "ladder": {"tf", "netlist"} | output,
        "bode": {"tf"} | sweep | output,
        "compare": {"lam", "order", "methods", "T", "omega_b", "omega_h", "report"} | sweep | output,
    }
    valid = {
        "realize": ("--controller", "diffint", "--lambda", "1/2", "--order", "3"),
        "symbolic": ("--controller", "fopid", "--order", "2"),
        "ladder": ("--tf", "tf.json"),
        "bode": ("--tf", "tf.json", "--fmin", "1", "--fmax", "10"),
        "compare": ("--lambda", "1/2", "--order", "2", "--methods", "cfe-low",
                    "--fmin", "1", "--fmax", "10"),
    }
    assert tuple(valid) == _COMMAND_NAMES
    for name, flags in valid.items():
        namespace = vars(build_parser(name).parse_args(list(flags)))
        assert namespace == vars(build_parser().parse_args([name, *flags]))
        assert set(namespace) == dests[name]
        # the flat parser takes no command name, so a second one is an
        # extra argument to it as to the full tree's subparser
        for parser, argv in ((build_parser(name), [*flags, name]),
                             (build_parser(), [name, *flags, name])):
            with pytest.raises(ValidationError, match=rf"^unrecognized arguments: {name}$"):
                parser.parse_args(argv)


# each controller family's spec class and its realization in the low band
# unless the spec picks its own
_FAMILIES = {
    "diffint": (Differintegrator, realize_differintegrator),
    "fopid": (FOPID, lambda spec, order: realize_fopid(spec, "low", order)),
    "fopd": (FOPDBracket, realize_fopd_bracket),
    "leadlag": (LeadLag, realize_leadlag),
}


def test_a_controller_parameter_has_one_name(capsys):
    # a rational flag's dest is the spec field it sets and the symbol that
    # field becomes when omitted: the dests are exact.SYMBOLS in order, and
    # every spec field but the sign and the band is one of them
    assert [dest for dest, _, _ in cli._RAT_FLAGS] == list(SYMBOLS)
    for spec_class, _ in _FAMILIES.values():
        assert set(spec_class._fields) - {"sign", "freq_range"} <= set(SYMBOLS)
    # each family takes exactly the flags whose dest is one of its spec's
    # fields, each setting that field, and refuses every other one
    for family, (spec_class, realize) in _FAMILIES.items():
        for dest, flag, _ in cli._RAT_FLAGS:
            value, band = (Fraction(2), ("--range", "high")) if dest == "T" else (Fraction(1, 2), ())
            rc = run("symbolic", "--controller", family, "--order", "2", flag, str(value), *band,
                     "--no-meta")
            out, err = capsys.readouterr()
            if dest not in spec_class._fields:
                assert (rc, out, err) == (2, "", f"error: {flag} is not a {family} parameter\n")
                continue
            fields = {name: None for name in spec_class._fields if name in SYMBOLS and name != "T"}
            fields[dest] = value
            if band:
                fields["freq_range"] = "high"
            assert (rc, err) == (0, "")
            assert out == emit_symbolic_document(realize(spec_class(**fields), 2))


_FAILING_STDOUT = {
    "dev-full": (
        ("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3"),
        errno.ENOSPC,
    ),
    "dev-full-help": (("realize", "--help"), errno.ENOSPC),
    "closed-pipe": (
        ("bode", "--tf", str(PERFBENCH / "inputs" / "fopid-n3.json"), "--fmin", "1e-4",
         "--fmax", "1e4", "--points-per-decade", "10000"),
        errno.EPIPE,
    ),
}


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", sorted(_FAILING_STDOUT))
def test_a_failing_stdout_exits_2_without_a_traceback(sink, unbuffered):
    # a full device, for a document or for help, or a pipe whose reader
    # leaves after one byte: the command exits 2 with one error line, and
    # the interpreter's own flush at exit adds nothing
    full = sink.startswith("dev-full")
    if full and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    argv, code = _FAILING_STDOUT[sink]
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, PYTHONUNBUFFERED=unbuffered)
    command = [sys.executable, "-m", "fracrat.cli", *argv]
    if full:
        with open("/dev/full", "w") as full:
            proc = subprocess.run(command, stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=120)
        returncode, stderr = proc.returncode, proc.stderr
    else:
        with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env) as proc:
            assert proc.stdout.read(1) == "#"
            proc.stdout.close()
            stderr = proc.stderr.read()
            returncode = proc.wait(timeout=120)
    assert returncode == 2, stderr
    assert stderr == f"error: cannot write to stdout: [Errno {code}] {os.strerror(code)}\n"


class _WouldBlock(io.RawIOBase):
    """A raw stdout on a non-blocking file that would block on every write."""

    def __init__(self, fd):
        self.fd = fd
        self.writes = 0

    def writable(self):
        return True

    def write(self, data):
        self.writes += 1
        assert self.writes == 1, "a write that would block was retried"
        return None

    def fileno(self):
        return self.fd


def test_a_stdout_that_would_block_exits_2(tmp_path, monkeypatch, capsys):
    # the raw write returns None; it is an error, not a write of nothing to retry
    with open(tmp_path / "fd", "w") as handle:
        raw = _WouldBlock(handle.fileno())
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, write_through=True))
        code = main(["realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3"])
    assert code == 2
    code = errno.EAGAIN
    assert capsys.readouterr().err == (
        f"error: cannot write to stdout: [Errno {code}] {os.strerror(code)}\n"
    )


def test_parse_tf_document_rejects_malformed_input():
    with pytest.raises(ValidationError):
        parse_tf_document("not json")
    with pytest.raises(ValidationError):
        parse_tf_document(json.dumps({"format": "ladder"}))
    with pytest.raises(ValidationError):
        parse_tf_document(json.dumps({"format": "tf-document", "num": [], "den": ["1"]}))
    with pytest.raises(ValidationError):
        parse_tf_document(
            json.dumps({"format": "tf-document", "num": ["x"], "den": ["1"]})
        )
    with pytest.raises(ValidationError):
        parse_tf_document(
            json.dumps(
                {"format": "tf-document", "ring": "symbolic", "num": ["1"], "den": ["1"]}
            )
        )
    with pytest.raises(ValidationError):
        parse_tf_document(
            json.dumps(
                {"format": "tf-document", "variable": "z", "num": ["1"], "den": ["1"]}
            )
        )
    # a JSON boolean is not a number, and a gain label is a string
    for doc, match in (
        ({"ring": "float", "num": [True], "den": ["1"]}, "bad coefficient True"),
        ({"num": [False], "den": ["1"]}, "bad coefficient False"),
        ({"num": ["1"], "den": ["1", "1"], "gain": {"label": "g", "value": True}}, "bad gain value"),
        ({"num": ["1"], "den": ["1", "1"], "gain": {"label": ["x"], "value": "2"}}, "string label"),
        ({"num": ["1"], "den": ["1", "1"], "gain": {"value": "2"}}, "string label"),
    ):
        with pytest.raises(ValidationError, match=match):
            parse_tf_document(json.dumps({"format": "tf-document", **doc}))
    # notes are absent or a list of strings; nothing else is coerced
    for notes in (5, "ab", {"a": 1}, [1], ["ok", None], None):
        doc = {"format": "tf-document", "num": ["1"], "den": ["1"], "notes": notes}
        with pytest.raises(ValidationError, match="notes"):
            parse_tf_document(json.dumps(doc))
    doc = {"format": "tf-document", "num": ["1"], "den": ["1"]}
    assert parse_tf_document(json.dumps(doc))[0].notes == ()
    doc["notes"] = ["pade-defect=1"]
    assert parse_tf_document(json.dumps(doc))[0].notes == ("pade-defect=1",)


# numpy is loaded only by the evaluating functions of fracrat.freqresp, so
# these run in fresh interpreters: the test process has numpy loaded already.


def test_building_the_parser_loads_no_numpy():
    run_fresh(
        "import sys, fracrat.cli\n"
        "fracrat.cli.build_parser()\n"
        "assert 'numpy' not in sys.modules\n"
    )


def test_cli_start_up_loads_none_of_the_heavy_modules():
    # isolated (-I) and without site (-S), so that nothing a site hook or
    # the environment preloads hides a module that fracrat itself imports;
    # -I also drops PYTHONDONTWRITEBYTECODE, so -B keeps the run from
    # writing bytecode caches into src/
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import fracrat.cli\n"
        "fracrat.cli.build_parser()\n"
        "print(*sorted({'dataclasses', 'inspect', 'typing', 'numpy'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_construction_commands_load_no_numpy(tmp_path):
    tf, sym, lad, cir = (str(tmp_path / n) for n in ("tf.json", "sym.json", "lad.json", "lad.cir"))
    calls = [
        ["realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3", "-o", tf],
        ["symbolic", "--controller", "diffint", "--order", "3", "-o", sym],
        ["ladder", "--tf", tf, "-o", lad, "--netlist", cir],
    ]
    run_fresh(
        "import sys\n"
        "from fracrat.cli import main\n"
        f"assert [main(argv) for argv in {calls!r}] == [0, 0, 0]\n"
        "assert 'numpy' not in sys.modules\n"
    )
    for path in (tf, sym, lad, cir):
        assert Path(path).stat().st_size > 0


def test_bode_loads_numpy_and_writes_the_in_process_csv(tmp_path):
    tf = tmp_path / "tf.json"
    assert run("realize", "--controller", "diffint", "--lambda", "1/2", "--order", "3",
               "-o", str(tf)) == 0
    sweep = ("bode", "--tf", str(tf), "--fmin", "0.01", "--fmax", "100",
             "--points-per-decade", "5")
    fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
    run_fresh(
        "import sys\n"
        "from fracrat.cli import main\n"
        f"assert main({[*sweep, '-o', str(fresh)]!r}) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    assert run(*sweep, "-o", str(here)) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_importing_the_cli_loads_every_traced_module():
    # perfbench/run.py --trace 1 wraps names in every LAYERS module, whether
    # or not the workload's commands import it
    run_fresh(
        "import sys\n"
        "import fracrat.cli\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from tracing import LAYERS, Tracer\n"
        "missing = [m for m in LAYERS if 'fracrat.' + m not in sys.modules]\n"
        "assert not missing, missing\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "tracer.uninstall()\n"
    )
