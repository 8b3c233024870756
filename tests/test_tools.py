import contextlib
import importlib.util
import io
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digest.py"


def test_artifact_digest_runs_and_repeats_itself():
    # every bit-for-bit claim rests on this tool, which imports the
    # benchmark's workloads and private mechanism names: it must keep
    # running, and two runs in one process print the same digests
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    runs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert tool.main() == 0
        runs.append(buf.getvalue())
    assert runs[0] == runs[1]
    digests = json.loads(runs[0])
    assert any(k.startswith("cli/uniform_additive/") for k in digests)
    assert any(k.startswith("cli/tab_income/") for k in digests)
