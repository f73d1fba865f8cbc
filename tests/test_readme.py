"""The README's library quickstart runs as written, and it names every line of the verify report."""

import re
from pathlib import Path

from mubpurity import construct_mubs, verify_relations
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


def test_every_verify_report_name_is_documented():
    # the README is where users read what each report line means
    readme = " ".join(README.read_text().split())
    names = set()
    for m in (3, 4):
        report = verify_relations(construct_mubs(3, m), 2, 4, 9)
        for line in report.summary().splitlines()[1:-1]:
            names.add(line.split(": ", 1)[0])
    assert len(names) == 12
    assert sorted(name for name in names if f"`{name}`" not in readme) == []
