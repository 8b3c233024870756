import contextlib
import importlib.util
import io
import json
import os
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


def test_artifact_digest_compare_names_moved_keys(tmp_path):
    # --compare lists each changed key, with the largest absolute move of a
    # value entry's numbers (space-separated reprs or JSON) and nothing more
    # for a digest
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = {"tables/a/psi": "0" * 64, "tables/a/pi_star": "1" * 64,
           "api/a/phi_cap/0": "0.5 0.25 1e-09", "api/a/report": '{"x": [1.0, 2.5], "ok": true}',
           "api/a/gone": "1.0", "api/a/nan": "nan 1.0"}
    new = {"tables/a/psi": "2" * 64, "tables/a/pi_star": "1" * 64,
           "api/a/phi_cap/0": "0.5 0.2500000000000001 1.5e-09",
           "api/a/report": '{"x": [1.0, 2.0], "ok": true}',
           "api/a/nan": "nan 1.0", "api/a/new": "3.0"}
    paths = []
    for name, doc in (("old.json", old), ("new.json", new)):
        paths.append(str(tmp_path / name))
        Path(paths[-1]).write_text(json.dumps(doc), encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert tool.main(["--compare", *paths]) == 0
    assert buf.getvalue().splitlines() == [
        "5 of 7 keys changed",
        "api/a/gone: only in old",
        "api/a/new: only in new",
        f"api/a/phi_cap/0: largest move {abs(1.5e-09 - 1e-09)!r}",
        "api/a/report: largest move 0.5",
        "tables/a/psi"]


def test_artifact_digest_refuses_another_royaltycap_on_pythonpath(tmp_path, monkeypatch, capsys):
    # the tool digests its own checkout's src, so a PYTHONPATH naming another
    # tree's package would digest the wrong tree without a word: it exits 2
    # and names the entry, before any artifact is made
    spec = importlib.util.spec_from_file_location("artifact_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    other = tmp_path / "other" / "src"
    (other / "royaltycap").mkdir(parents=True)
    (other / "royaltycap" / "__init__.py").write_text("", encoding="utf-8")
    own = str(TOOL.parents[1] / "src")
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([own, str(other)]))
    assert tool.main() == 2
    captured = capsys.readouterr()
    assert str(other) in captured.err and captured.out == ""
    # its own src, a tree without the package and an empty entry pass
    assert tool.foreign_packages(os.pathsep.join([own, "", str(tmp_path)])) == []
    assert tool.foreign_packages(str(other)) == [str(other)]
