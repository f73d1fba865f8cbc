import json


def pytest_report_header(config):
    # which comparison tests/test_golden.py makes on this machine
    from test_golden import PROVENANCE, mode, regenerate

    recorded = sorted({json.loads(p.read_text())["provenance"] for p in regenerate.GOLDEN.glob("*/transcript.json")})
    modes = "/".join(sorted({mode(line) for line in recorded}))
    return f"golden transcripts: {modes} mode (here: {PROVENANCE}; recorded: {'; '.join(recorded)})"
