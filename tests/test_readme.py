"""The README's "Library example" runs as printed and reads what its comments say."""

import contextlib
import io
import re
from pathlib import Path

import numpy as np

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_runs_verbatim():
    section = re.search(r"## Library example\n(.*?)\n## ", README, re.S)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    names = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec(compile(code, "README.md", "exec"), names)
    kappa, ratio = np.ptp(names["table"].kappa), names["report"].ratio
    assert kappa <= 1e-12 and abs(ratio - 1.0) <= 1e-12
    assert printed.getvalue() == f"{kappa}\n{ratio}\n"
