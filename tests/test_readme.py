"""Every ```python block of README.md runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", open(README, encoding="utf-8").read(),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source):
    exec(compile(source, README, "exec"), {"__name__": "readme"})
