"""The golden manifest is the one tests/golden/make_manifest.py builds today:
every command still prints and writes the same bytes and exits with the
same code, and the matrix holds no command line that the committed manifest
lacks, or the other way round (a matrix or `_ERRORS` edit committed without
regenerating). make_manifest.py says how to regenerate it."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_manifest", GOLDEN / "make_manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_reproduces_its_manifest_entry():
    generator = _load_generator()
    committed = generator.MANIFEST.read_text(encoding="utf-8")
    manifest = json.loads(committed)
    # the manifest covers every subcommand and the three outcomes it pins:
    # success, a refusal and a degenerate computation
    assert {line.split()[0] for line in manifest} == {"realize", "symbolic", "ladder", "bode", "compare"}
    assert {entry["exit"] for entry in manifest.values()} == {0, 2, 3}
    built = generator.build()
    report = [f"added: {line}" for line in built if line not in manifest]
    report += [f"dropped: {line}" for line in manifest if line not in built]
    for line, want in manifest.items():
        got = built.get(line)
        if got is not None and got != want:
            fields = [key for key in want if got[key] != want[key]]
            report.append(f"changed: {line}: {', '.join(fields)}")
    assert not report, f"{len(report)} of {len(manifest)} commands differ:\n" + "\n".join(report)
    # the same entries in the same order and layout: the committed file itself
    assert generator.dumps(built) == committed
