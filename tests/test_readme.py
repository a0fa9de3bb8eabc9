"""The README's library example runs as written against the package root."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the Gaussian pair's mass is sqrt(pi) per component, kept by s4c
    assert float(out.getvalue()) == pytest.approx(2.0 * 3.141592653589793**0.5,
                                                  rel=1e-10)
