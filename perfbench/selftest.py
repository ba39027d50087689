"""Self-tests of the benchmark's checks and tracer. Run from the checkout root:

    python3 perfbench/selftest.py

Exits 0 when every check holds. It shows that a corrupted reference
(digest, sweep number, fit-report number, exit code or known defect) is
reported as a failure while a change within tolerance is not, that a ladder
must fold back to its tf-document, that a known defect counts as fixed only
on exit 0 with outputs that check out, and that a traced run gives the same
outputs as an untraced one with self times that are non-negative and within
the traced wall time. It also checks that times scale by the host-speed kernel runs
on either side of them.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import hostspeed  # noqa: E402
from run import Sample, run_command, scale_times  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import OUT, steps_for  # noqa: E402

FAILURES = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def commands(workload):
    return {cmd.id: cmd for step in steps_for(workload) for cmd in step}


def status(ref, cli, cmd):
    _, code, raised = run_command(cli, cmd)
    return ref.check(cmd, code, raised)[0]


def corrupted(ref, cmd_id, edit):
    commands_copy = copy.deepcopy(ref.commands)
    arrays = {k: v.copy() for k, v in ref.arrays.items()}
    edit(commands_copy[cmd_id], arrays)
    return check.Reference(commands_copy, arrays)


def test_reference_checks(cli):
    numeric = check.Reference.load("numeric")
    cmds = commands("numeric")
    Path(f"{OUT}/numeric").mkdir(parents=True, exist_ok=True)
    realize, ladder, bode = (cmds[f"{s} diffint-n10"] for s in ("realize", "ladder", "bode"))
    expect(status(numeric, cli, realize) == check.OK, "recorded tf-document passes")

    def bad_digest(entry, _):
        entry["outputs"][realize.outputs[0][0]]["sha256"] = "0" * 64

    expect(
        status(corrupted(numeric, realize.id, bad_digest), cli, realize) == check.FAILED,
        "corrupted document digest fails",
    )

    def bad_exit(entry, _):
        entry["exit"] = 2

    expect(
        status(corrupted(numeric, realize.id, bad_exit), cli, realize) == check.FAILED,
        "corrupted exit code fails",
    )

    csv = bode.outputs[0][0]
    key = check.array_key(csv)

    def nudge(scale):
        def edit(entry, arrays):
            entry["outputs"][csv]["sha256"] = "0" * 64  # force the numeric comparison
            arrays[key][150, 1] *= 1 + scale

        return edit

    expect(status(numeric, cli, bode) == check.OK, "recorded sweep passes")
    expect(
        status(corrupted(numeric, bode.id, nudge(1e-8)), cli, bode) == check.OK,
        "sweep within tolerance passes",
    )
    expect(
        status(corrupted(numeric, bode.id, nudge(1e-3)), cli, bode) == check.FAILED,
        "sweep number off by 1e-3 fails",
    )

    expect(status(numeric, cli, ladder) == check.OK, "recorded ladder passes")
    expect(check.ladder_folds_back(ladder), "ladder folds back to its tf-document")
    path = ladder.outputs[0][0]
    text = Path(path).read_text()
    Path(path).write_text(text.replace('"g": "63/74"', '"g": "64/74"', 1))
    expect(not check.ladder_folds_back(ladder), "altered ladder does not fold back")

    status(numeric, cli, cmds["realize leadlag-n10"])
    status(numeric, cli, cmds["ladder leadlag-n10"])
    expect(check.ladder_folds_back(cmds["ladder leadlag-n10"]), "ladder with a float gain folds back")

    probe = cmds["ladder leadlag-n20"]
    status(numeric, cli, cmds["realize leadlag-n20"])
    expect(status(numeric, cli, probe) == check.KNOWN_DEFECT, "known defect is counted as such")

    def other_exception(entry, _):
        entry["raises"] = "KeyError: 'g'"

    def other_message(entry, _):
        entry["raises"] = entry["raises"].split(":")[0] + ": refused"

    expect(
        status(corrupted(numeric, probe.id, other_exception), cli, probe) == check.FAILED,
        "an exception other than the recorded one fails",
    )
    expect(
        status(corrupted(numeric, probe.id, other_message), cli, probe) == check.FAILED,
        "the recorded exception type with another message fails",
    )
    for code in (2, 3):
        expect(
            numeric.check(probe, code, None)[0] == check.FAILED,
            f"a known defect refused with exit {code} fails",
        )
    expect(numeric.check(probe, 0, None)[0] == check.FAILED, "a fixed ladder that writes nothing fails")
    test_fixed_ladder(cli, numeric, probe)

    sweep = check.Reference.load("sweep")
    compare = commands("sweep")["compare lam1_2-n3"]
    report = compare.outputs[1][0]
    Path(f"{OUT}/sweep").mkdir(parents=True, exist_ok=True)
    expect(status(sweep, cli, compare) == check.OK, "recorded compare passes")

    def bad_report(entry, _):
        entry["outputs"][report]["sha256"] = "0" * 64
        entry["outputs"][report]["report"]["methods"]["carlson"]["max_mag_err_db"] += 0.01

    expect(
        status(corrupted(sweep, compare.id, bad_report), cli, compare) == check.FAILED,
        "corrupted fit-report number fails",
    )
    test_fixed_compare(cli, sweep, commands("sweep")["compare lam1_4-n5"])


def test_fixed_ladder(cli, numeric, probe):
    """Lifting the integer string limit lets the known-defect ladder write
    its outputs, as a fix would; they must fold back and match."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        _, code, raised = run_command(cli, probe)
    finally:
        sys.set_int_max_str_digits(limit)
    expect(code == 0 and raised is None, "known-defect ladder runs without the digit limit")
    expect(numeric.check(probe, 0, None)[0] == check.OK, "a fixed ladder that folds back passes")
    ladder, netlist = (path for path, _ in probe.outputs)
    Path(netlist).write_text(".subckt\n" + Path(netlist).read_text())
    expect(numeric.check(probe, 0, None)[0] == check.FAILED, "a fixed ladder with a wrong netlist fails")
    Path(netlist).unlink()
    expect(numeric.check(probe, 0, None)[0] == check.FAILED, "a fixed ladder without its netlist fails")
    Path(ladder).write_text("{}")
    expect(numeric.check(probe, 0, None)[0] == check.FAILED, "an unreadable fixed ladder fails")


def test_fixed_compare(cli, sweep, cmd):
    """A fixed compare is made from the compare over the recorded methods
    with columns and report entries added for the rest."""
    variant = cmd.recorded_variant()
    csv, report = (path for path, _ in cmd.outputs)
    methods = cmd.argv[cmd.argv.index("--methods") + 1]
    extra = "carlson"
    expect(methods.split(",")[-1] == extra, "the compare known defect adds carlson last")

    def fake_fix(mag_db=None, drop_entry=False):
        run_command(cli, variant)
        lines = Path(csv).read_text().rstrip("\n").split("\n")
        lines[0] = lines[0].replace(cmd.recorded_methods, methods)
        lines[1] += f",{extra}_mag_db,{extra}_phase_deg"
        for i in range(2, len(lines)):
            lines[i] += ",".join(["", *lines[i].split(",")[-2:]])
        if mag_db is not None:
            cells = lines[5].split(",")
            cells[2] = repr(float(cells[2]) + mag_db)
            lines[5] = ",".join(cells)
        Path(csv).write_text("\n".join(lines) + "\n")
        doc = json.loads(Path(report).read_text())
        doc["meta"]["methods"] = methods
        if not drop_entry:
            doc["methods"][extra] = copy.deepcopy(doc["methods"]["mod-oustaloup"])
        Path(report).write_text(json.dumps(doc, indent=2) + "\n")
        return sweep.check(cmd, 0, None)[0]

    expect(fake_fix() == check.OK, "a fixed compare that keeps the recorded methods passes")
    expect(fake_fix(mag_db=1e-3) == check.FAILED, "a fixed compare off by 1e-3 dB fails")
    expect(fake_fix(drop_entry=True) == check.FAILED, "a fixed compare without a carlson entry fails")
    run_command(cli, variant)
    expect(sweep.check(cmd, 0, None)[0] == check.FAILED, "a fixed compare without carlson columns fails")
    for code in (2, 3):
        expect(sweep.check(cmd, code, None)[0] == check.FAILED, f"a compare refused with exit {code} fails")


def test_tracing(cli):
    cmds = [cmd for step in steps_for("numeric")[:2] for cmd in step]
    cmds += [commands("symbolic")["symbolic diffint-n3"], commands("sweep")["compare lam1_2-n3"]]
    untraced = {}
    for cmd in cmds:
        run_command(cli, cmd)
        untraced[cmd.id] = [check.digest(p) for p, _ in cmd.outputs if Path(p).exists()]
    from fracrat.exact import ParamPoly

    original_main, original_mul = cli.main, ParamPoly.__mul__
    tracer = Tracer()
    tracer.install()
    wall = 0.0
    try:
        expect(cli.main is not original_main, "tracer wraps cli.main")
        expect(ParamPoly.__rmul__ is ParamPoly.__mul__, "__rmul__ shares the wrapper")
        for cmd in cmds:
            seconds, _, _ = run_command(cli, cmd)
            wall += seconds
            digests = [check.digest(p) for p, _ in cmd.outputs if Path(p).exists()]
            expect(digests == untraced[cmd.id], f"traced output equals untraced: {cmd.id}")
    finally:
        tracer.uninstall()
    expect(
        cli.main is original_main and ParamPoly.__mul__ is original_mul,
        "uninstall restores every binding",
    )
    totals = tracer.layer_totals()
    expect(all(own >= 0 for _, _, own in totals.values()), "self times are non-negative")
    expect(sum(own for _, _, own in totals.values()) <= wall, "self times sum within wall time")
    expect(totals["exact.ParamPoly.__mul__"][0] > 0, "ParamPoly.__mul__ calls are recorded")
    expect(totals["cli.main"][0] == len(cmds), "one cli.main span per command")
    expect(tracer.gauges["ladder.rungs"] > 0, "ladder gauges are recorded")


def test_host_speed_scaling():
    """A command timed while the kernel reads twice REFERENCE_S scales to
    0.5 ** SENSITIVITY of its time; each command takes the kernel runs on
    either side."""
    ref = hostspeed.REFERENCE_S
    cmd = commands("sweep")["compare lam1_2-n3"]
    kernels = [ref, 2 * ref, 2 * ref, ref]
    passes = [[Sample(cmd, 1.0, check.OK, "", (), k) for k in kernels[:2]],
              [Sample(cmd, 1.0, check.OK, "", (), k) for k in kernels[2:]]]
    scaled = [s.seconds for p in scale_times(passes) for s in p]
    want = [(2 / 3) ** hostspeed.SENSITIVITY, 0.5**hostspeed.SENSITIVITY] * 2
    want[-1] = 1.0
    expect(all(math.isclose(a, b) for a, b in zip(scaled, want)), f"host-speed scaling: {scaled}")
    expect(0 < hostspeed.kernel_seconds() < 1, "host-speed kernel runs")


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from fracrat import cli

    test_reference_checks(cli)
    test_tracing(cli)
    test_host_speed_scaling()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
