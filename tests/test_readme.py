"""README's Library example runs as written against the package under test."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_example_runs():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), re.M | re.S)
    assert len(blocks) == 1, f"README.md holds {len(blocks)} python code blocks, expected 1"
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
