"""The benchmark's tracer wraps library names by attribute; a rename in the
library breaks it only at run time, so run it on small configs here, and
check that a traced run writes the same report as an untraced one."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_child(args, info):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace",
         str(info), *args],
        cwd=ROOT, env=env, capture_output=True, timeout=120)


@pytest.mark.parametrize("suite", ["centralizer", "invariants"])
def test_tracer_binds(suite, tmp_path):
    info = tmp_path / "info.json"
    run = run_child([suite, "--n", "1", "--m", "2", "--N", "2"], info)
    assert run.returncode == 0, run.stderr
    metrics = json.loads(info.read_text())["trace"]["metrics"]
    assert metrics["ugl.memo_size"] > 0
    assert metrics["centralizer.series_cache_size"] > 0


def test_traced_default_report_is_golden(tmp_path):
    run = run_child(["all", "--seed", "0"], tmp_path / "info.json")
    assert run.returncode == 0, run.stderr
    assert run.stdout == (ROOT / "reports" / "golden_all.json").read_bytes()


def test_traced_prime_field_report_is_untraced_report(tmp_path):
    args = ["yangian", "--field", "GF", "--prime", "7", "--m", "2"]
    run = run_child(args, tmp_path / "info.json")
    assert run.returncode == 0, run.stderr
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    plain = subprocess.run([sys.executable, "-m", "gltlab.cli", *args],
                           cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert plain.returncode == 0, plain.stderr
    assert b'"field": "GF(7)"' in run.stdout and run.stdout == plain.stdout
