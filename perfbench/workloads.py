"""The benchmark's three workloads, as lists of `fracrat` command lines.

Each workload is a list of steps; a step is one or more commands that run
in order because later ones read what earlier ones wrote (realize, then
ladder and bode of the realized document). The seed shuffles the steps of a
pass, never the parameters, so every commit sees the same inputs.

Paths are relative to the checkout root, which is the working directory of
every run; the documents record them in their metadata, so they must not
depend on where the checkout lives.
"""

from __future__ import annotations

from dataclasses import dataclass

INPUTS = "perfbench/inputs"
OUT = "perfbench/out"

# How an output file is checked against its reference (see check.py).
DOCUMENT = "document"  # tf-, symbolic-, ladder-document or netlist: same bytes
SWEEP = "sweep"  # CSV sweep: same text fields, numbers within tolerance
REPORT = "report"  # fit-report JSON: same keys, numbers within tolerance


@dataclass(frozen=True)
class Command:
    """One `fracrat` invocation and the files it writes.

    known_defect names the exception type the seed commit raises for this
    command. Raising it again with the recorded message counts as a known
    defect, not a failure; only exit 0 with checked outputs counts as the
    defect fixed (see check.py). Known defects run in the warm-up pass
    only, so the timed passes and their figures leave them out.

    recorded_methods, for a compare known defect, lists the methods whose
    output the seed commit does give: the reference holds the same compare
    over these alone, and a fix must reproduce them and add the others.
    """

    id: str
    argv: tuple
    outputs: tuple  # ((path, kind), ...)
    known_defect: str | None = None
    recorded_methods: str | None = None

    @property
    def sub(self) -> str:
        return self.argv[0]

    def recorded_variant(self) -> "Command":
        """The command the reference holds for a compare known defect:
        the same arguments over recorded_methods alone."""
        argv = list(self.argv)
        argv[argv.index("--methods") + 1] = self.recorded_methods
        return Command(self.id, tuple(argv), self.outputs)


def _symbolic() -> list:
    steps = []

    def add(name, *flags):
        path = f"{OUT}/symbolic/{name}.json"
        argv = ("symbolic",) + flags + ("-o", path)
        steps.append((Command(f"symbolic {name}", argv, ((path, DOCUMENT),)),))

    for n in (3, 4, 5, 6):
        add(f"diffint-n{n}", "--controller", "diffint", "--order", str(n))
    add(
        "diffint-high-diff-n4",
        "--controller", "diffint", "--order", "4", "--range", "high", "--sign", "differentiator",
    )
    for n in (3, 4, 5, 6):
        add(f"fopd-n{n}", "--controller", "fopd", "--order", str(n))
    for n in (3, 4, 5):
        add(f"fopid-n{n}", "--controller", "fopid", "--order", str(n))
    for n in (3, 4):
        add(f"leadlag-n{n}", "--controller", "leadlag", "--order", str(n))
    add(
        "leadlag-kc-lam-x-n5",
        "--controller", "leadlag", "--order", "5", "--kc", "2", "--lambda", "1/10", "--x", "1/20",
    )
    add("fopd-mu13_10-n5", "--controller", "fopd", "--order", "5", "--mu", "13/10")
    add(
        "fopid-gains-n4",
        "--controller", "fopid", "--order", "4", "--kp", "1", "--ki", "1/2", "--kd", "1/4",
    )
    return steps


_LEADLAG = ("--controller", "leadlag", "--kc", "2", "--lambda", "1/10", "--x", "1/20", "--alpha", "1/2")

# (name, realize flags, exception the seed commit raises in that case's ladder)
_NUMERIC_CASES = (
    ("diffint-n10", ("--controller", "diffint", "--lambda", "37/100", "--order", "10"), None),
    ("diffint-n20", ("--controller", "diffint", "--lambda", "37/100", "--order", "20"), None),
    ("diffint-n40", ("--controller", "diffint", "--lambda", "37/100", "--order", "40"), None),
    ("diffint-n60", ("--controller", "diffint", "--lambda", "37/100", "--order", "60"), None),
    (
        "diffint-high-n20",
        ("--controller", "diffint", "--lambda", "37/100", "--order", "20", "--range", "high", "--T", "1/10"),
        # exact rung values reach 24,481 bits; str() hits the 4300-digit limit
        "ValueError",
    ),
    (
        "diffint-diff-n20",
        ("--controller", "diffint", "--lambda", "37/100", "--order", "20", "--sign", "differentiator"),
        None,
    ),
    ("leadlag-n5", _LEADLAG + ("--order", "5"), None),
    ("leadlag-n10", _LEADLAG + ("--order", "10"), None),
    # the float gain folds in as a 53-bit binary fraction; rungs reach 28,876 bits
    ("leadlag-n20", _LEADLAG + ("--order", "20"), "ValueError"),
    (
        "fopid-n10",
        ("--controller", "fopid", "--kp", "1", "--ki", "1/2", "--kd", "1/4",
         "--lambda", "1/2", "--mu", "1/2", "--order", "10"),
        None,
    ),
    ("fopd-n10", ("--controller", "fopd", "--kp", "1", "--kd", "1/2", "--mu", "13/10", "--order", "10"), None),
)


def _numeric() -> list:
    steps = []
    for name, flags, ladder_defect in _NUMERIC_CASES:
        base = f"{OUT}/numeric/{name}"
        tf = f"{base}.json"
        steps.append(
            (
                Command(f"realize {name}", ("realize",) + flags + ("-o", tf), ((tf, DOCUMENT),)),
                Command(
                    f"ladder {name}",
                    ("ladder", "--tf", tf, "-o", f"{base}.ladder.json", "--netlist", f"{base}.cir"),
                    ((f"{base}.ladder.json", DOCUMENT), (f"{base}.cir", DOCUMENT)),
                    known_defect=ladder_defect,
                ),
                Command(
                    f"bode {name}",
                    ("bode", "--tf", tf, "--fmin", "1e-3", "--fmax", "1e3",
                     "--points-per-decade", "50", "-o", f"{base}.csv"),
                    ((f"{base}.csv", SWEEP),),
                ),
            )
        )
    return steps


_NO_CARLSON = "cfe-low,cfe-high,oustaloup,mod-oustaloup"
_ALL_METHODS = _NO_CARLSON + ",carlson"

# tf-documents under INPUTS swept on wide grids (low order, >= 10k points)
SWEEP_INPUTS = (
    ("semi-integrator-n3", ("--controller", "diffint", "--lambda", "1/2", "--order", "3")),
    (
        "semi-differentiator-high-n3-float",
        ("--controller", "diffint", "--lambda", "1/2", "--order", "3",
         "--range", "high", "--sign", "differentiator", "--float"),
    ),
    ("leadlag-n3", _LEADLAG + ("--order", "3")),
    (
        "fopid-n3",
        ("--controller", "fopid", "--kp", "1", "--ki", "1/2", "--kd", "1/4",
         "--lambda", "1/2", "--mu", "1/2", "--order", "3"),
    ),
)


def _sweep() -> list:
    steps = []

    def compare(name, lam, order, methods, known_defect=None, recorded_methods=None):
        base = f"{OUT}/sweep/compare-{name}"
        argv = (
            "compare", "--lambda", lam, "--order", str(order), "--methods", methods,
            "--fmin", "1e-2", "--fmax", "1e2", "--points-per-decade", "200",
            "-o", f"{base}.csv", "--report", f"{base}.fit.json",
        )
        outputs = ((f"{base}.csv", SWEEP), (f"{base}.fit.json", REPORT))
        steps.append((Command(f"compare {name}", argv, outputs, known_defect, recorded_methods),))

    for lam in ("1/2", "1/3", "1/4"):
        for n in (3, 4, 5):
            # Carlson depth 5 at lam = 1/4 reaches degree 3906 and its
            # coefficients overflow float()
            if (lam, n) == ("1/4", 5):
                defect, recorded = "OverflowError", _NO_CARLSON
            else:
                defect, recorded = None, None
            compare(f"lam{lam.replace('/', '_')}-n{n}", lam, n, _ALL_METHODS, defect, recorded)
    compare("lam37_100-n10", "37/100", 10, _NO_CARLSON)
    for name, _ in SWEEP_INPUTS:
        out = f"{OUT}/sweep/bode-{name}.csv"
        argv = (
            "bode", "--tf", f"{INPUTS}/{name}.json", "--fmin", "1e-4", "--fmax", "1e4",
            "--points-per-decade", "1250", "-o", out,
        )
        steps.append((Command(f"bode {name}", argv, ((out, SWEEP),)),))
    return steps


WORKLOADS = {"symbolic": _symbolic, "numeric": _numeric, "sweep": _sweep}


def steps_for(workload: str) -> list:
    return WORKLOADS[workload]()


# ROADMAP "Baseline at this re-anchor" figures, in ms, by command id. The
# ROADMAP timed the library calls; these are whole CLI commands, so document
# emission and file I/O come on top.
ROADMAP_MS = {
    "realize diffint-n10": 8.6,
    "realize diffint-n20": 61.0,
    "realize diffint-n40": 550.0,
    "realize leadlag-n20": 125.0,
    "symbolic leadlag-n3": 200.0,
    "symbolic leadlag-n4": 2900.0,
    "ladder diffint-n40": 16.0,
    "bode diffint-n40": 1.7,
}
