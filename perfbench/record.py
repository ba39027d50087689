"""Record the reference outputs of every benchmark command.

Run once from the checkout root at the commit whose outputs are the
reference:

    python3 perfbench/record.py

It writes perfbench/reference/<workload>.json (exit codes, digests, CSV
leading lines, fit reports; for a known defect the exception it raises and,
for a compare, the outputs of the same compare over the methods it can
compute) and <workload>.npz (every CSV
sweep's numbers as float32). The low-order tf-documents under
perfbench/inputs/ are written only when missing, so re-recording never
changes the benchmark's inputs.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from run import run_command  # noqa: E402
from workloads import INPUTS, OUT, REPORT, SWEEP, SWEEP_INPUTS, WORKLOADS, steps_for  # noqa: E402


def record_outputs(cmd, arrays) -> dict:
    outputs = {}
    for path, kind in cmd.outputs:
        entry = {"sha256": check.digest(path)}
        text = Path(path).read_text()
        if kind == SWEEP:
            head = 2 if text.startswith("#") else 1
            entry["head"], _, numbers = check.parse_sweep(text, head)
            arrays[check.array_key(path)] = numbers.astype(np.float32)
        elif kind == REPORT:
            entry["report"] = json.loads(text)
        outputs[path] = entry
    return outputs


def record(cli, workload: str):
    commands = {}
    arrays = {}
    os.makedirs(f"{OUT}/{workload}", exist_ok=True)
    for step in steps_for(workload):
        for cmd in step:
            _, code, raised = run_command(cli, cmd)
            if raised is None and cmd.known_defect is None:
                commands[cmd.id] = {"exit": code, "outputs": record_outputs(cmd, arrays)}
                continue
            if raised is None or raised.split(":")[0] != cmd.known_defect:
                sys.exit(f"{cmd.id}: raised {raised}, declared {cmd.known_defect}")
            commands[cmd.id] = {"raises": raised}
            if cmd.recorded_methods is not None:
                variant = cmd.recorded_variant()
                _, code, raised = run_command(cli, variant)
                if code != 0 or raised is not None:
                    sys.exit(f"{cmd.id} over {cmd.recorded_methods}: exit {code}, raised {raised}")
                commands[cmd.id]["recorded"] = record_outputs(variant, arrays)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    with open(check.REFERENCE_DIR / f"{workload}.json", "w", encoding="utf-8") as handle:
        json.dump({"commands": commands}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    np.savez_compressed(check.REFERENCE_DIR / f"{workload}.npz", **arrays)


def main():
    sys.path.insert(0, str(Path.cwd() / "src"))
    from fracrat import cli

    os.makedirs(INPUTS, exist_ok=True)
    for name, flags in SWEEP_INPUTS:
        path = f"{INPUTS}/{name}.json"
        if not os.path.exists(path):
            if cli.main(["realize", *flags, "--no-meta", "-o", path]) != 0:
                sys.exit(f"cannot write input {path}")
    for workload in WORKLOADS:
        record(cli, workload)
        print(f"recorded {workload}")


if __name__ == "__main__":
    main()
