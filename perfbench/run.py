"""fracrat benchmark: CLI workloads timed from outside the program.

Run from the root of a checkout:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

One caller in one process runs every command through `fracrat.cli.main`,
closed loop, no extra threads. After an untimed warm-up pass the workload's
passes repeat, each in an order shuffled by the seed, for --seconds (at
least MIN_PASSES passes). Every command's output is checked against the
references recorded in perfbench/reference/. A fixed kernel runs
between every two commands and set-up spawns to measure the host's speed,
which drifts; every time in the end-to-end metrics is scaled to a
reference host speed (hostspeed.py), and the raw times print beside them.
The benchmark pins itself to one CPU, so its spawns run where the kernel
does. Each command's raw time and kernel time go to
perfbench/out/<workload>/samples.json for a look at the drift.

--trace 0 prints the end-to-end metrics: wall_s, the median pass; cmd_p50_ms,
the median over commands of each command's median latency; cmd_tail_ms, the
latency at the highest listed percentile with ten samples beyond it;
setup_s, the median time to import fracrat and build the parser in a fresh
interpreter; peak_rss_mb of this process. The timed passes leave out the
commands declared known defects (workloads.py): these run and are checked
in the warm-up pass, and their time there is printed apart as
known_defect_s, so that a crash path neither hides nor fakes a change in
the rest. --trace 1 times untraced passes, known defects included, for half
the time, then wraps the package's public functions (tracing.py) and
prints per-layer metrics for the traced passes. --workload all runs the
three workloads in turn. The last line of stdout is a JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import hostspeed  # noqa: E402
from tracing import GAUGES, Tracer  # noqa: E402
from workloads import OUT, ROADMAP_MS, WORKLOADS, Command, steps_for  # noqa: E402

MIN_PASSES = 4
SETUP_SPAWNS = 11
SETUP_KERNELS = 5  # host-speed kernel runs on each side of a set-up spawn
SUBCOMMANDS = ("symbolic", "realize", "ladder", "bode", "compare")
SETUP_CODE = (
    "import time; t = time.perf_counter(); import fracrat.cli; "
    "fracrat.cli.build_parser(); print(time.perf_counter() - t)"
)


class Sample(NamedTuple):
    cmd: Command
    seconds: float
    status: str  # check.OK, check.KNOWN_DEFECT or check.FAILED
    detail: str
    digests: tuple  # SHA-256 of each output file, None where not written
    kernel: float  # seconds of the host-speed kernel run just before


def run_command(cli, cmd) -> tuple[float, int | None, str | None]:
    """Run one command in-process; return (seconds, exit code, exception
    as "<type>: <message>")."""
    for path, _ in cmd.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    gc.collect()  # every command starts from the same heap state
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code, raised = cli.main(list(cmd.argv)), None
        except SystemExit as exc:
            code, raised = exc.code, None
        except Exception as exc:  # a traceback in the CLI; the check decides
            code, raised = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, raised


def run_pass(cli, ref, steps, rng, defects=True) -> list:
    """One pass over the steps in a shuffled order; with defects=False the
    commands declared known defects are left out."""
    order = list(steps)
    rng.shuffle(order)
    samples = []
    for step in order:
        for cmd in step:
            if cmd.known_defect is not None and not defects:
                continue
            kernel = hostspeed.kernel_seconds()
            seconds, code, raised = run_command(cli, cmd)
            status, detail = ref.check(cmd, code, raised)
            digests = tuple(
                check.digest(p) if os.path.exists(p) else None for p, _ in cmd.outputs
            )
            samples.append(Sample(cmd, seconds, status, detail, digests, kernel))
    return samples


def run_passes(cli, ref, steps, rng, seconds, min_passes, pass_guess, defects=True) -> list:
    """At least min_passes passes, then more while another pass of the
    last one's length still ends within `seconds`."""
    passes = []
    start = time.perf_counter()
    last = pass_guess
    while len(passes) < min_passes or time.perf_counter() - start + last <= seconds:
        begin = time.perf_counter()
        passes.append(run_pass(cli, ref, steps, rng, defects))
        last = time.perf_counter() - begin
    return passes


def measure_setup(src: Path) -> tuple[list, list]:
    """Times to import fracrat and build the CLI parser in a fresh
    interpreter, raw and scaled to the reference host speed by the kernel
    runs on each side of every spawn; one untimed spawn first writes the
    bytecode caches."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    times, kernels = [], []
    for i in range(SETUP_SPAWNS + 1):
        kernels.append(host_kernel())
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        times.append(float(out))
    kernels.append(host_kernel())
    scaled = [t * f for t, f in zip(times, hostspeed.factors(kernels))]
    return times[1:], scaled[1:]


def host_kernel() -> float:
    """Mean time of SETUP_KERNELS runs of the host-speed kernel."""
    return statistics.fmean(hostspeed.kernel_seconds() for _ in range(SETUP_KERNELS))


def scale_times(passes) -> list:
    """The passes with every command's time scaled to the reference host
    speed by the kernel runs on each side of it."""
    flat = [s for p in passes for s in p]
    factors = iter(hostspeed.factors([s.kernel for s in flat]))
    return [[s._replace(seconds=s.seconds * next(factors)) for s in p] for p in passes]


def tail_percentile(commands_per_pass: int) -> Fraction:
    """Highest percentile with at least ten samples beyond it at the
    guaranteed sample count, so every run reports the same percentile. With
    P passes it leaves 2.5 * P samples beyond: the middle of the third
    slowest command's samples, not the edge between two commands."""
    return 100 * (1 - Fraction(10, commands_per_pass * MIN_PASSES))


def nearest_rank(p: Fraction, n: int) -> int:
    return max(1, math.ceil(p * n / 100))


def pass_seconds(samples, sub=None, defects=False) -> float:
    """Seconds spent in the pass's timed commands, or with defects=True in
    its declared known defects, optionally of one subcommand only."""
    return sum(
        (
            s.seconds
            for s in samples
            if (s.cmd.known_defect is not None) == defects and (sub is None or s.cmd.sub == sub)
        ),
        0.0,
    )


def command_ms(passes, warm) -> dict:
    """Each command's median ms over the timed passes; the known defects
    with their time in the warm-up pass."""
    by_id = {}
    for s in [s for p in passes for s in p] + [s for s in warm if s.cmd.known_defect is not None]:
        by_id.setdefault(s.cmd, []).append(s.seconds * 1e3)
    return {cmd: statistics.median(ms) for cmd, ms in by_id.items()}


def timings(passes, warm, tail_p) -> dict:
    """wall_s, cmd_p50_ms and cmd_tail_ms of the timed passes."""
    latencies = sorted(s.seconds * 1e3 for p in passes for s in p)
    timed_ms = [ms for cmd, ms in command_ms(passes, warm).items() if cmd.known_defect is None]
    return {
        "wall_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        # each command's median first: pass-to-pass noise then cannot move the
        # median from one command to a neighbour of quite different latency
        "cmd_p50_ms": (statistics.median(timed_ms), "ms"),
        "cmd_tail_ms": (latencies[nearest_rank(tail_p, len(latencies)) - 1], "ms"),
    }


def report_end_to_end(name, passes, warm, setup, tail_p) -> dict:
    """End-to-end metrics of the timed passes, which leave the known
    defects out; those are shown with their time in the warm-up pass.
    Every time is scaled to the reference host speed (hostspeed.py); the
    raw times print beside."""
    raw_setup, scaled_setup = setup
    scaled = scale_times([warm] + passes)
    metrics = timings(scaled[1:], scaled[0], tail_p)
    metrics["setup_s"] = (statistics.median(scaled_setup), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = timings(passes, warm, tail_p)
    raw["setup_s"] = (statistics.median(raw_setup), "s")
    n = sum(len(p) for p in passes)
    beyond = n - nearest_rank(tail_p, n)
    kernel_ms = [s.kernel * 1e3 for p in passes for s in p]
    cmd_ms = command_ms(passes, warm)
    defects = sum(cmd.known_defect is not None for cmd in cmd_ms)
    print(
        f"== {name}: {len(passes)} timed passes of {len(passes[0])} commands"
        f" ({defects} known defects left out, run in the warm-up pass)"
    )
    print(
        f"  host-speed kernel: median {statistics.median(kernel_ms):.3f} ms, range"
        f" {min(kernel_ms):.3f}-{max(kernel_ms):.3f} ms; times below are scaled to"
        f" {hostspeed.REFERENCE_S * 1e3:g} ms, raw times beside them"
    )
    print("  raw pass walls (s): " + " ".join(f"{pass_seconds(p):.3f}" for p in passes))
    for key, (value, unit) in metrics.items():
        extra = f"  raw {raw[key][0]:.4f}" if key in raw else ""
        if key == "cmd_tail_ms":
            extra += f"  (p{float(tail_p):.4g} of {n} samples, {beyond} beyond)"
        print(f"  {key:<14} {value:12.4f} {unit}{extra}")
    for sub in SUBCOMMANDS:
        if any(s.cmd.sub == sub for s in passes[0]):
            value = statistics.median(pass_seconds(p, sub) for p in scaled[1:])
            print(f"  {sub + '_s':<14} {value:12.4f} s  (per pass)")
    if defects:
        value = pass_seconds(scaled[0], defects=True)
        print(f"  {'known_defect_s':<14} {value:12.4f} s  (warm-up pass, not in the figures above)")
    print_command_shares(cmd_ms)
    print_case_table({cmd.id: ms for cmd, ms in cmd_ms.items()})
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def dump_samples(path, passes, setup):
    """Every timed command's raw seconds and kernel time, and the raw and
    scaled set-up times, for a look at the host's drift after the run."""
    doc = {
        "passes": [[(s.cmd.id, s.seconds, s.kernel) for s in p] for p in passes],
        "setup": {"raw": setup[0], "scaled": setup[1]},
    }
    Path(path).write_text(json.dumps(doc))


def print_command_shares(cmd_ms):
    total = sum(ms for cmd, ms in cmd_ms.items() if cmd.known_defect is None)
    print("  raw median ms and share of the timed pass, by command")
    for cmd, ms in sorted(cmd_ms.items(), key=lambda item: -item[1]):
        if cmd.known_defect is None:
            share = f"{100 * ms / total:6.1f}%"
        else:
            share = "   known defect, warm-up pass only"
        print(f"    {cmd.id:<40} {ms:10.2f} {share}")


def print_case_table(cmd_ms):
    rows = [(cid, cmd_ms[cid], ms) for cid, ms in ROADMAP_MS.items() if cid in cmd_ms]
    if not rows:
        return
    print("  ROADMAP baseline cases (raw median ms; reference output, not metrics)")
    for cid, ms, roadmap in rows:
        ratio = ms / roadmap
        flag = "  departs from ROADMAP" if not 0.5 <= ratio <= 2.0 else ""
        print(f"    {cid:<24} {ms:10.2f}  roadmap {roadmap:8.1f}  x{ratio:5.2f}{flag}")


def report_layers(tracer, totals, plain, traced) -> dict:
    n = len(traced)
    metrics = {}
    for span, (calls, incl, own) in totals.items():
        metrics[f"{span}.calls"] = (calls / n, "count")
        metrics[f"{span}.ms"] = (incl * 1e3 / n, "ms")
        metrics[f"{span}.self_ms"] = (own * 1e3 / n, "ms")
    for gauge, how in GAUGES.items():
        value = tracer.gauges[gauge]
        metrics[gauge] = (value / n if how == "sum" else value, "count")
    plain_wall = statistics.median(pass_seconds(p) for p in plain)
    traced_wall = statistics.median(pass_seconds(p) for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    for sub in SUBCOMMANDS:
        metrics[f"cli.{sub}_s"] = (statistics.median(pass_seconds(p, sub) for p in plain), "s")
    metrics["cli.known_defect_s"] = (
        statistics.median(pass_seconds(p, defects=True) for p in plain),
        "s",
    )
    known = sum(s.status == check.KNOWN_DEFECT for p in traced for s in p)
    metrics["cli.known_defects"] = (known / n, "count")
    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:<52} {value:14.4f} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def trace_problems(totals, plain, traced) -> list:
    """Self-checks of a traced run: same outputs as untraced, self times
    non-negative and within the traced wall time."""
    problems = []
    untraced = {s.cmd.id: s.digests for s in plain[-1]}
    for p in traced:
        for s in p:
            if s.digests != untraced[s.cmd.id]:
                problems.append(f"traced output of {s.cmd.id} differs from untraced")
    if any(own < 0 for _, _, own in totals.values()):
        problems.append("negative self time")
    wall = sum(pass_seconds(p) + pass_seconds(p, defects=True) for p in traced)
    if sum(own for _, _, own in totals.values()) > wall:
        problems.append("self times exceed the traced wall time")
    return problems


def run_workload(name, seed, seconds, trace, src) -> tuple[dict, int, int, bool]:
    steps = steps_for(name)
    ref = check.Reference.load(name)
    setup = None if trace else measure_setup(src)
    from fracrat import cli

    os.makedirs(f"{OUT}/{name}", exist_ok=True)
    rng = random.Random(seed)
    begin = time.perf_counter()
    warm = run_pass(cli, ref, steps, rng)
    warm_s = time.perf_counter() - begin
    gc.collect()
    gc.freeze()
    problems = []
    if not trace:
        passes = run_passes(cli, ref, steps, rng, seconds, MIN_PASSES, warm_s, defects=False)
        metrics = report_end_to_end(name, passes, warm, setup, tail_percentile(len(passes[0])))
        dump_samples(f"{OUT}/{name}/samples.json", passes, setup)
    else:
        plain = run_passes(cli, ref, steps, rng, seconds / 2, 1, warm_s)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(cli, ref, steps, rng, seconds / 2, 1, warm_s)
        finally:
            tracer.uninstall()
        tracer.write(f"{OUT}/{name}/spans.json")
        print(f"== {name}: per-layer metrics per pass ({len(traced)} traced, {len(plain)} untraced passes)")
        totals = tracer.layer_totals()
        metrics = report_layers(tracer, totals, plain, traced)
        problems = trace_problems(totals, plain, traced)
        passes = plain + traced
    gc.unfreeze()
    samples = warm + [s for p in passes for s in p]
    failed = [s for s in samples if s.status == check.FAILED]
    known = sum(s.status == check.KNOWN_DEFECT for s in samples)
    print(f"  fail_share     {len(failed) / len(samples):12.4f}  ({len(failed)} of {len(samples)} commands)")
    print(f"  known_defects  {known:12d}  (commands raising a recorded known defect)")
    for s in failed[:10]:
        print(f"  FAILED {s.cmd.id}: {s.detail}")
    for problem in problems:
        print(f"  TRACE CHECK FAILED: {problem}")
    return metrics, len(samples), len(failed), not failed and not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or all in turn (peak_rss_mb is then the peak so far)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "fracrat" / "cli.py").is_file():
        print("perfbench: run from the checkout root; src/fracrat is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the benchmark and its set-up spawns, so the kernel
        # runs see the host state that the timed work sees
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed, correct = run_workload(
            name, args.seed, args.seconds, args.trace, src
        )
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}." if len(names) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
