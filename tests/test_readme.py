"""The README's Python quick start runs and gives the values its comments state."""
import re
from pathlib import Path

import pytest

from tsense import PureFock

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_quick_start():
    (block,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                          flags=re.DOTALL | re.MULTILINE)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["f"][0] == pytest.approx(44.0, rel=1e-12, abs=0.0)
    assert names["best"].f0 == 120.0
    assert names["best"].maximizers == (PureFock((2, 2, 2)),)
    assert names["theta_min"] is not None
