"""Print sha256 digests of every deterministic artifact, as one JSON object.

Run from the repository root:

    PYTHONPATH=src python3 tools/artifact_digest.py > digest.json

Run it on two checkouts and compare the outputs (``diff`` of the two files)
to see which artifacts a change moves.  The digests cover:

* the CLI ``check``, ``solve``, ``verify-ic``, ``menu`` and ``simulate``
  (20,000 runs) artifacts of the shipped configs in ``configs/``, the CLI
  ``sweep`` (20,000 runs per row) of those with a ``sweep`` section, and
  each call's exit code;
* the CLI ``check`` and ``solve`` artifacts of the benchmark's tabulated
  instances ``tab_error`` and ``tab_income``, from the documents that
  ``perfbench/workloads.py`` builds;
* per instance, every ``AgentTables`` array, ``payoff_bound`` and one
  ``estimate_revenue`` report (20,000 runs, seed 0).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import SHIPPED, Tabulated  # noqa: E402
from royaltycap import cli, mech, sim  # noqa: E402
from royaltycap.config import parse_config  # noqa: E402

SEED = 0
RUNS = 20_000


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(out: dict, name: str, config: Path, commands, workdir: Path):
    for cmd in commands:
        target = workdir / name / cmd
        extra = ["--runs", str(RUNS)] if cmd in ("simulate", "sweep") else []
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([cmd, "--config", str(config), "--out", str(target),
                             "--seed", str(SEED), *extra])
        out[f"cli/{name}/{cmd}/exit"] = str(code)
        for path in sorted(target.glob("*")):
            out[f"cli/{name}/{cmd}/{path.name}"] = _sha(path.read_bytes())


def _library_digests(out: dict, name: str, text: str):
    inst = parse_config(text).instance
    for i, t in enumerate(mech.tables_for(inst).agents):
        for f in fields(t):
            arr = np.ascontiguousarray(getattr(t, f.name))
            out[f"tables/{name}/{i}/{f.name}"] = _sha(arr.tobytes())
    out[f"payoff_bound/{name}"] = repr(mech.payoff_bound(inst))
    rep = sim.estimate_revenue(inst, None, RUNS, SEED)
    out[f"estimate_revenue/{name}"] = _sha(json.dumps(rep.to_dict()).encode())


def main() -> int:
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in SHIPPED:
            config = ROOT / "configs" / f"{name}.yaml"
            text = config.read_text(encoding="utf-8")
            sweep = ("sweep",) if parse_config(text).sweep is not None else ()
            _cli_digests(out, name, config,
                         ("check", "solve", "verify-ic", "menu", "simulate", *sweep), workdir)
            _library_digests(out, name, text)
        for cfg in Tabulated(ROOT, SEED).configs:
            config = workdir / f"{cfg.name}.yaml"
            config.write_text(cfg.text, encoding="utf-8")
            _cli_digests(out, cfg.name, config, ("check", "solve"), workdir)
            _library_digests(out, cfg.name, cfg.text)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
