"""The README's library quickstart runs as written."""

import re
from pathlib import Path

from mubpurity.tolerances import TOL_SPECTRAL

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    rep = namespace["rep"]
    assert abs(rep.lhs - 0.5625) <= TOL_SPECTRAL
    assert abs(rep.rhs - 0.5625) <= TOL_SPECTRAL
