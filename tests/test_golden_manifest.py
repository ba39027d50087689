"""Every command of the golden manifest still prints and writes the same
bytes and exits with the same code (tests/golden/make_manifest.py builds
the manifest and says how to regenerate it)."""

import importlib.util
import json
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_manifest", GOLDEN / "make_manifest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_reproduces_its_manifest_entry(tmp_path, monkeypatch):
    generator = _load_generator()
    manifest = json.loads(generator.MANIFEST.read_text(encoding="utf-8"))
    # the replay covers every subcommand and both outcomes it pins
    assert {line.split()[0] for line in manifest} == {"realize", "symbolic", "ladder", "bode", "compare"}
    assert {entry["exit"] for entry in manifest.values()} == {0, 2}
    monkeypatch.chdir(tmp_path)
    generator.write_inputs()
    changed = []
    for line, want in manifest.items():
        try:
            got = generator.run(line)
        except Exception as exc:
            changed.append(f"{line}: raises {type(exc).__name__}: {exc}")
            continue
        if got != want:
            fields = [key for key in want if got[key] != want[key]]
            changed.append(f"{line}: {', '.join(fields)} changed")
    assert not changed, f"{len(changed)} of {len(manifest)} commands changed:\n" + "\n".join(changed)
