"""README's Python examples run as written and print what they show, and
its command lines run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from fracrat.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_print_their_comments():
    # the blocks run in order in one namespace, and the whole-line "# "
    # comments of each block are the lines it prints
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            exec(block, namespace)
        shown = [line[2:] for line in block.splitlines() if line.startswith("# ")]
        assert printed.getvalue().splitlines() == shown, block


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # every `fracrat` line of the sh blocks, continuations joined, runs in
    # order in one directory, exits 0 and writes each file it names
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("fracrat ")
    ]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, line
        for flag, value in zip(argv, argv[1:]):
            if flag in ("-o", "--netlist", "--report"):
                assert (tmp_path / value).is_file(), line
