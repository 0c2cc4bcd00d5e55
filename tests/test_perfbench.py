"""The benchmark's tracer wraps library names by attribute; a rename in the
library breaks it only at run time, so run it on small configs here."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("suite", ["centralizer", "invariants"])
def test_tracer_binds(suite, tmp_path):
    info = tmp_path / "info.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace",
         str(info), suite, "--n", "1", "--m", "2", "--N", "2"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    metrics = json.loads(info.read_text())["trace"]["metrics"]
    assert metrics["ugl.memo_size"] > 0
    assert metrics["centralizer.series_cache_size"] > 0
