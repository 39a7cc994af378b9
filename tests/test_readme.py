"""The README's library example runs as written.

Functions shown in README.md stay available; this executes its ``python``
block, so a removed or renamed name fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        flags=re.M | re.S)
    assert blocks, "README.md has no python block"
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
