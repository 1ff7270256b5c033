"""The README's python examples run against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_python_blocks_run_in_order(capsys):
    blocks = python_blocks()
    assert len(blocks) >= 2
    namespace = {}  # later blocks use the names that earlier ones define
    for index, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
    # the quick start prints the 16-stream digital rate it quotes as ~124 b/s/Hz
    assert round(float(capsys.readouterr().out.split()[0])) == 124
