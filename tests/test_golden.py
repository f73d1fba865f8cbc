"""Every golden transcript in tests/golden/ holds: each case, run through cli.main, gives its recorded outputs.

The comparison is exact, byte for byte, when this machine's provenance
line matches the golden's. Otherwise the bytes are not promised: every
float token is compared within ``|a - b| <= 1e-12 * (1 + |b|)``, and all
other text, the exit codes and the set of files exactly, save one
position: ``mub``'s report names the first worst entry of deviations at
the rounding level, and which entry that is moves with the kernel as the
deviations do. The mode that ran is in pytest's header and in every
failure message.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("regenerate", Path(__file__).parent / "golden" / "regenerate.py")
regenerate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regenerate)

RELATIVE = 1e-12
_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][-+]?\d+)?")
_WORST_POSITION = re.compile(r"\((?:basis \d+|bases \d+,\d+), vectors \d+,\d+\)")
PROVENANCE = regenerate.provenance()


def mode(golden_provenance: str) -> str:
    return "exact" if golden_provenance == PROVENANCE else "masked"


def _masked_equal(got: str, want: str) -> bool:
    """The texts agree outside their float tokens and worst positions, and each pair of floats within the relative bound."""
    got, want = (_WORST_POSITION.sub("(position)", text) for text in (got, want))
    if _FLOAT.split(got) != _FLOAT.split(want):
        return False
    pairs = zip(map(float, _FLOAT.findall(got)), map(float, _FLOAT.findall(want)))
    return all(abs(a - b) <= RELATIVE * (1 + abs(b)) for a, b in pairs)


def test_every_golden_is_a_case():
    dirs = {p.name for p in regenerate.GOLDEN.iterdir() if p.is_dir()} - {"inputs", "__pycache__"}
    assert dirs == set(regenerate.CASES)


@pytest.mark.parametrize("name", sorted(regenerate.CASES))
def test_case_matches_its_golden(name, tmp_path):
    golden_dir = regenerate.GOLDEN / name
    golden = json.loads((golden_dir / "transcript.json").read_text())
    how = mode(golden["provenance"])
    context = f"{how} mode; golden: {golden['provenance']}; here: {PROVENANCE}"
    steps, files = regenerate.run_case(name, tmp_path)

    def same(got: str, want: str) -> bool:
        return got == want if how == "exact" else _masked_equal(got, want)

    assert [s["argv"] for s in steps] == [s["argv"] for s in golden["steps"]], "the case changed; regenerate"
    for got, want in zip(steps, golden["steps"]):
        assert got["exit"] == want["exit"], f"{got['argv']}: exit code ({context})"
        for stream in ("stdout", "stderr"):
            assert same("".join(got[stream]), "".join(want[stream])), f"{got['argv']}: {stream} ({context})"
    assert sorted(files) == sorted(golden["files"]), context
    for file, stored in golden["files"].items():
        want = (golden_dir / stored).read_bytes()
        ok = files[file] == want if how == "exact" else _masked_equal(files[file].decode(), want.decode())
        assert ok, f"{file} ({context})"


def test_masked_comparison_bounds_each_float():
    assert _masked_equal("gap=1e-16 (bound -1e-09) PASS", "gap=3.5e-16 (bound -1e-09) PASS")
    assert _masked_equal("[-0.0, 0.5]", "[0.0, 0.5000000000001]")
    assert not _masked_equal("x=0.5 PASS", "x=0.5 FAIL")
    assert not _masked_equal("x=1.0", "x=1.000000000003")
    # integers are text, save in a worst position of the mub report
    assert not _masked_equal("d=7 M=4", "d=7 M=5")
    assert _masked_equal("3.3e-16 (bases 2,3, vectors 2,1)", "2.2e-16 (bases 4,6, vectors 0,1)")
