import json
import os
import pathlib
import subprocess
import sys

import pytest

from gltlab import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestExitCodes:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run(["ugl"], capsys)
        assert code == 0
        assert json.loads(out)["summary"]["pass"]

    def test_check_failure_is_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli.SUITE_FNS, "ugl",
            lambda cfg: [{"check": "forced failure", "parameters": {},
                          "expected": 0, "got": 1, "pass": False}])
        code, out, _ = run(["ugl"], capsys)
        assert code == 1
        assert json.loads(out)["summary"]["failed"] == 1

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["nosuchsuite"], capsys)
        assert exc.value.code == 2

    def test_bad_config_is_two(self, capsys):
        code, _, err = run(["ugl", "--field", "GF", "--prime", "9"], capsys)
        assert code == 2 and "prime" in err

    def test_prime_above_bound_is_two_at_once(self):
        # 2^61 - 1 is prime; trial division to its square root would hang.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "gltlab.cli", "yangian", "--field", "GF",
             "--prime", str(2**61 - 1)],
            capture_output=True, text=True, env=env, timeout=10)
        assert proc.returncode == 2 and "prime" in proc.stderr
        assert not proc.stdout

    def test_unwritable_out_is_two_before_any_suite(self, tmp_path,
                                                      capsys, monkeypatch):
        ran = []
        monkeypatch.setitem(cli.SUITE_FNS, "ugl",
                            lambda cfg: ran.append(cfg) or [])
        path = tmp_path / "no such dir" / "r.json"
        code, out, err = run(["ugl", "--out", str(path)], capsys)
        assert code == 2 and err.startswith("error: ") and not out
        assert "Traceback" not in err and not ran
        code, _, _ = run(["ugl", "--out", str(tmp_path / "r.json")], capsys)
        assert code == 0 and ran

    @pytest.mark.parametrize("suite", ["yangian", "all"])
    def test_yangian_over_qt_is_two(self, suite, capsys):
        # Qt is no --field choice: argparse's usage error.
        with pytest.raises(SystemExit) as exc:
            run([suite, "--field", "Qt"], capsys)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and "invalid choice" in err and not out

    @pytest.mark.parametrize("suite", ["brauer", "evalfunctor", "ugl",
                                       "centralizer", "invariants", "all"])
    @pytest.mark.parametrize("field", [["GF", "--prime", "7"], ["Qt"]],
                             ids=["GF", "Qt"])
    def test_field_ignored_by_suite_is_two(self, suite, field, capsys):
        # validate refuses GF outside yangian; argparse refuses Qt anywhere.
        try:
            code = cli.main([suite, "--field", *field])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and "--field" in err and not out

    def test_yangian_accepts_prime_field(self, capsys):
        code, out, _ = run(["yangian", "--field", "GF", "--prime", "7",
                            "--m", "2"], capsys)
        assert code == 0 and json.loads(out)["config"]["field_name"] == "GF"

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_pairs_below_one_is_two(self, pairs, capsys):
        code, out, err = run(["evalfunctor", "--pairs", pairs], capsys)
        assert code == 2 and "pairs" in err and not out

    def test_resource_guard_is_three(self, capsys):
        code, _, err = run(["all", "--n", "3", "--m", "9"], capsys)
        assert code == 3 and "resource guard" in err

    def test_guard_runs_before_out_is_created(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        code, out, err = run(["centralizer", "--n", "3", "--out", str(path)],
                             capsys)
        assert code == 3 and "resource guard" in err and not out
        assert not path.exists()

    @pytest.mark.parametrize("suite", ["yangian", "ugl"])
    def test_non_prime_is_two_whatever_the_field(self, suite, capsys):
        code, out, err = run([suite, "--prime", "4"], capsys)
        assert code == 2 and err.startswith("error: ") and "prime" in err
        assert not out


class TestConfig:
    def test_file_plus_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"n": 1, "N": [2], "m": 2, "seed": 5}))
        code, out, _ = run(["yangian", "--config", str(cfgfile), "--m", "3"],
                           capsys)
        assert code == 0
        assert json.loads(out)["config"]["m"] == 3

    @pytest.mark.parametrize("data", [
        [1], {"n": "1"}, {"N": 3}, {"n": True}, {"N": [2, True]},
        {"field": 5}, {"out": 1}, {"validate": 1}])
    def test_malformed_config_is_two(self, data, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(data))
        code, out, err = run(["ugl", "--config", str(cfgfile)], capsys)
        assert code == 2 and err.startswith("error: ") and not out

    def test_unknown_field_in_config_is_two(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"field": "Qt"}))
        code, out, err = run(["yangian", "--config", str(cfgfile)], capsys)
        assert code == 2 and "unknown field" in err and not out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(["ugl", "--config", str(cfgfile)], capsys)
        assert code == 2 and "bogus" in err


class TestReports:
    def test_empty_result_set(self):
        text = cli.emit_report(
            {"schema_version": cli.SCHEMA_VERSION, "checks": [],
             "summary": {"total": 0, "passed": 0, "failed": 0, "pass": True}},
            None)
        data = json.loads(text)
        assert data["summary"]["total"] == 0

    def test_schema_fields(self, capsys):
        _, out, _ = run(["invariants"], capsys)
        data = json.loads(out)
        assert data["schema_version"] == 1
        for check in data["checks"]:
            assert {"check", "pass", "suite"} <= set(check)

    def test_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["centralizer", "--seed", "1", "--out", str(a)], capsys)
        run(["centralizer", "--seed", "1", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_out_flag_writes_stdout_too(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        _, out, _ = run(["ugl", "--out", str(path)], capsys)
        assert path.read_text() == out


class TestGolden:
    @pytest.mark.parametrize("hashseed", ["1", "2"])
    @pytest.mark.parametrize("argv", [["all", "--seed", "0"], ["brauer"]],
                             ids=["all", "brauer"])
    def test_report_ignores_hash_seed(self, argv, hashseed):
        # The benchmark runs `verify` with a random PYTHONHASHSEED; set and
        # dict iteration must not reach the report bytes.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-m", "gltlab.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        golden = ROOT / "reports" / f"golden_{argv[0]}.json"
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden.read_bytes()

    @pytest.mark.parametrize("suite", ["brauer", "all"])
    def test_matches_stored_report(self, suite, tmp_path, capsys):
        golden = ROOT / "reports" / f"golden_{suite}.json"
        path = tmp_path / "now.json"
        code, _, _ = run([suite, "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == golden.read_bytes()

    def test_centralizer_cap_matches_stored_report(self, tmp_path, capsys):
        # The guard's cap config for n = 2: the commutator-heavy hot path.
        golden = ROOT / "reports" / "golden_centralizer_cap.json"
        path = tmp_path / "now.json"
        code, _, _ = run(["centralizer", "--n", "2", "--m", "3", "--N", "8",
                          "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == golden.read_bytes()

    def test_yangian_gf7_matches_stored_report(self, tmp_path, capsys):
        # The PBW rank over GF(7): the one check that reduces mod a prime.
        golden = ROOT / "reports" / "golden_yangian_gf7.json"
        path = tmp_path / "now.json"
        code, _, _ = run(["yangian", "--field", "GF", "--prime", "7",
                          "--n", "2", "--m", "3", "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == golden.read_bytes()

    def test_invariants_cap_matches_stored_report(self, tmp_path, capsys):
        # The guard's cap config for n = 2: the invariant-rank hot path.
        golden = ROOT / "reports" / "golden_invariants_cap.json"
        path = tmp_path / "now.json"
        code, _, _ = run(["invariants", "--n", "2", "--m", "3", "--N", "8",
                          "--out", str(path)], capsys)
        assert code == 0
        assert path.read_bytes() == golden.read_bytes()
