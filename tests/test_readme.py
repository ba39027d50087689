"""README's Python examples run as written and print what they show."""

import contextlib
import io
import re
from pathlib import Path

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
