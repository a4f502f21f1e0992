"""The README library example is the public API; it must run as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_as_written():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    ach, conv = scope["ach"], scope["conv"]
    assert math.isfinite(ach.rate_bits) and math.isfinite(conv.rate_bits)
    assert ach.rate_bits <= conv.rate_bits
