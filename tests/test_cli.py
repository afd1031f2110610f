"""Command-line interface: argument handling, exit codes, artifacts."""

import hashlib
import json
import math
import re
from dataclasses import fields

import pytest

from jspec import CampaignConfig, cli, load_report, reports, suites
from jspec.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_passing_suite_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "run", "--suite", "ftvn", "--algebra", "sym:2",
            "--trials", "10", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "suite ftvn: PASS" in text
        assert "max_violation" in text
        rep = load_report(out)
        assert rep.passed and rep.suite == "ftvn"

    def test_failing_suite_exit_one(self, tmp_path, capsys):
        out = tmp_path / "fail.json"
        code = run_cli(
            "run", "--suite", "cp-table", "--grid", "inf",
            "--n", "4", "--starts", "1", "--seed", "1", "--out", str(out),
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out
        assert not load_report(out).passed

    def test_grid_and_estimator_flags_respected(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "run", "--suite", "theorem1", "--algebra", "spin:3",
            "--trials", "4", "--restarts", "8", "--grid", "1,4/3,inf",
            "--max-iters", "60", "--tol", "1e-9", "--out", str(out),
        )
        assert code == 0
        cfg = load_report(out).config
        assert cfg["grid"] == [1.0, pytest.approx(4.0 / 3.0), "inf"]
        assert cfg["restarts"] == 8
        assert cfg["max_iters"] == 60

    def test_bad_descriptor_exit_two(self, capsys):
        code = run_cli("run", "--suite", "ftvn", "--algebra", "quat:3", "--trials", "2")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_oversized_descriptor_exit_two(self, capsys):
        code = run_cli("run", "--suite", "ftvn", "--algebra", "rn:99999999999999999999999", "--trials", "1")
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and "rn:99999999999999999999999" in err

    @pytest.mark.parametrize("argv", [
        ("cp-table", "--n", "99999999999999999999", "--starts", "1", "--grid", "2"),
        ("cp-table", "--n", "2", "--starts", "99999999999999999999", "--grid", "2"),
        ("run", "--suite", "lyapunov-norms", "--algebra", "sym:2", "--trials", "1",
         "--restarts", "99999999999999999999"),
        ("run", "--suite", "clarkson", "--n", "99999999999999999999", "--trials", "5", "--grid", "3"),
    ])
    def test_oversized_count_exit_two(self, capsys, argv):
        # a count past NumPy's largest dimension once ended in a ValueError
        # traceback (exit 1) from the first array it sized
        code = run_cli(*argv)
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
        assert "must be <= 9223372036854775807, got 99999999999999999999" in err

    def test_config_echoes_the_canonical_descriptor(self, tmp_path):
        # one campaign, one report: each spelling of sym:2 (and of rn:5)
        # echoes the canonical descriptor, so all write one checksum
        reps = {}
        for desc in ("sym:2", "SYM:02", " sym : 2 ", "rn:5", "rn:2,rn:3"):
            out = tmp_path / f"{len(reps)}.json"
            assert run_cli("run", "--suite", "ftvn", "--algebra", desc, "--trials", "2", "--out", str(out)) == 0
            reps[desc] = load_report(out)
        for typed, canonical in (("SYM:02", "sym:2"), (" sym : 2 ", "sym:2"), ("rn:2,rn:3", "rn:5")):
            assert reps[typed].config["algebra"] == canonical
            assert reps[typed].checksum == reps[canonical].checksum

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--suite", "nope")
        assert exc.value.code == 2

    def test_empty_grid_exit_two(self, capsys):
        code = run_cli("run", "--suite", "ftvn", "--trials", "2", "--grid", " , ")
        assert code == 2

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--trials", "0"),
            ("--n", "1"),
            ("--seed", "-1"),
            ("--tol", "nan"),
            ("--tol", "inf"),
            ("--tol", "-1e-9"),
            ("--restarts", "0"),
            ("--max-iters", "0"),
            ("--starts", "0"),
            ("--grid", "1/2"),
            ("--grid", "1/0"),
        ],
    )
    def test_bad_config_exit_two(self, capsys, flag, value):
        code = run_cli("run", "--suite", "ftvn", "--trials", "2", f"{flag}={value}")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_defaults_come_from_campaign_config(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli("run", "--suite", "ftvn", "--out", str(out)) == 0
        assert load_report(out).config == CampaignConfig(suite="ftvn").to_json()

    def test_help_shows_each_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--help")
        assert exc.value.code == 0
        # undo argparse's line wrapping, and keep the option list
        text = " ".join(capsys.readouterr().out.split()).split("options:")[1]
        argv = ["run", "--suite", "ftvn"]
        for f in fields(CampaignConfig):
            if f.name != "suite":
                flag = f"--{f.name.replace('_', '-')}"
                shown = re.search(rf"{flag} \S+ .*?\(default ([^)]*)\)", text)
                assert shown, f.name
                argv += [flag, shown.group(1)]
        # each shown default, passed back as a flag, gives the default config
        assert cli._config(cli.build_parser().parse_args(argv)) == CampaignConfig(suite="ftvn")

    def test_unwritable_out_exit_two(self, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        assert run_cli("run", "--suite", "ftvn", "--trials", "5", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err and str(out) in err

    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    @pytest.mark.parametrize("argv", [("run", "--suite", "ftvn", "--trials", "5", "--out"),
                                      ("cp-table", "--grid", "2", "--starts", "4", "--out"),
                                      ("cp-table", "--grid", "2", "--starts", "4", "--csv")],
                             ids=["run-out", "cp-table-out", "cp-table-csv"])
    def test_bad_output_path_exits_before_the_run(self, tmp_path, capsys, argv, where):
        # the path is checked before the campaign runs, so nothing prints
        path = tmp_path / "missing" / "out" if where == "missing-parent" else tmp_path
        assert run_cli(*argv, str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write output file" in captured.err and str(path) in captured.err
        assert sorted(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [("run", "--suite", "ftvn", "--trials", "5", "--out"),
                                      ("cp-table", "--grid", "2", "--starts", "4", "--csv")],
                             ids=["run-out", "cp-table-csv"])
    def test_unwritable_file_exits_before_the_run(self, tmp_path, capsys, monkeypatch, argv):
        # root may write any file whatever its mode, so os.access is told to refuse this one
        path = tmp_path / "report.json"
        path.write_text("old")
        access = reports.os.access
        monkeypatch.setattr(reports.os, "access", lambda p, mode: p != path and access(p, mode))
        assert run_cli(*argv, str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cannot write output file" in captured.err and "file is not writable" in captured.err
        assert path.read_text() == "old"

    def test_writable_check_creates_nothing(self, tmp_path):
        reports.check_writable(tmp_path / "report.json")
        assert sorted(tmp_path.iterdir()) == []

    def test_gen_holder_skips_pairs_past_the_exponent_rule(self, tmp_path):
        # every pair with r or p = 1.9999999999996 has 1/p + 1/r > 1 by at
        # least 5e-14, so no exponent s exists; they are skipped and (2, 2)
        # is checked alone
        out = tmp_path / "report.json"
        code = run_cli("run", "--suite", "gen-holder", "--trials", "4",
                       "--grid", "2,1.9999999999996", "--out", str(out))
        assert code == 0
        assert load_report(out).witnesses[0]["s"] == 1.0

    def test_grid_without_brackets_writes_report(self, tmp_path):
        # every (r, s) pair on this grid has a closed form, so no bracket
        # margin is ever set; the report must still be valid JSON
        out = tmp_path / "report.json"
        code = run_cli(
            "run", "--suite", "lyapunov-norms", "--algebra", "sym:2", "--trials", "1",
            "--restarts", "4", "--grid", "1,4/3,inf", "--out", str(out),
        )
        assert code == 0
        rep = load_report(out)
        assert rep.margins["max_upper_overshoot"] == 0.0
        assert rep.margins["min_lower_slack"] == 0.0


class TestReplay:
    def _write_report(self, tmp_path, *extra):
        out = tmp_path / "report.json"
        assert run_cli(
            "run", "--suite", "gen-holder", "--trials", "8", "--seed", "5",
            "--out", str(out), *extra,
        ) == 0
        return out

    @staticmethod
    def _reseal(out, data):
        """Write an edited report back with a valid checksum."""
        payload = {k: v for k, v in data.items() if k not in ("wall_time", "checksum")}
        data["checksum"] = hashlib.sha256(reports._canonical(payload)).hexdigest()
        out.write_text(json.dumps(data))

    def test_replay_exit_zero(self, tmp_path, capsys):
        out = self._write_report(tmp_path)
        assert run_cli("replay", str(out)) == 0
        assert "margins reproduced" in capsys.readouterr().out

    def test_replay_failing_report_exit_one(self, tmp_path):
        out = tmp_path / "fail.json"
        run_cli(
            "run", "--suite", "cp-table", "--grid", "inf",
            "--n", "4", "--starts", "1", "--seed", "1", "--out", str(out),
        )
        assert run_cli("replay", str(out)) == 1

    def test_replay_tampered_exit_two(self, tmp_path, capsys):
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data["passed"] = False
        out.write_text(json.dumps(data))
        assert run_cli("replay", str(out)) == 2
        assert "checksum" in capsys.readouterr().err

    def test_replay_bad_config_type_exit_two(self, tmp_path, capsys):
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data["config"]["trials"] = "3"
        self._reseal(out, data)
        assert run_cli("replay", str(out)) == 2
        assert "config field 'trials' must be of type int" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("margins", 5), ("config", 5), ("witnesses", 5), ("passed", 1),
        ("suite", ["gen-holder"]), ("wall_time", "0.1"), ("wall_time", True),
    ])
    def test_replay_bad_field_type_exit_two(self, tmp_path, capsys, field, value):
        # a checksummed report with a mistyped field is a data error
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data[field] = value
        self._reseal(out, data)
        capsys.readouterr()
        assert run_cli("replay", str(out)) == 2
        assert f"report field {field!r} must be of type" in capsys.readouterr().err

    def test_replay_bool_exponent_exit_two(self, tmp_path, capsys):
        # JSON true is not the exponent 1
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data["config"]["grid"] = [True]
        self._reseal(out, data)
        assert run_cli("replay", str(out)) == 2
        assert "bad grid exponent" in capsys.readouterr().err

    def test_replay_unknown_suite_exit_two(self, tmp_path, capsys):
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data["config"]["suite"] = "nope"
        self._reseal(out, data)
        assert run_cli("replay", str(out)) == 2
        assert "unknown suite 'nope'" in capsys.readouterr().err

    def test_replay_schema_1_report_exit_two(self, tmp_path, capsys):
        # schema 1 reports come from the estimator without the patience
        # stop; their margins cannot replay and the message says so
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data["schema"] = "1"
        self._reseal(out, data)
        capsys.readouterr()
        assert run_cli("replay", str(out)) == 2
        err = capsys.readouterr().err
        assert "schema mismatch" in err
        assert "older estimator" in err and "re-run" in err

    def test_replay_schema_2_report_exit_two(self, tmp_path, capsys):
        # schema 2 reports come from the estimator whose restarts each drew
        # their own generator and whose first iteration was not shared, and
        # from the clarkson sampler that kept its whole sample
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data["schema"] = "2"
        self._reseal(out, data)
        capsys.readouterr()
        assert run_cli("replay", str(out)) == 2
        err = capsys.readouterr().err
        assert "schema mismatch" in err and "'2'" in err
        assert "older estimator" in err and "re-run" in err

    def test_replay_schema_3_report_exit_two(self, tmp_path, capsys):
        # schema 3 reports come from the c_p search that took one move at a
        # time and swept spent starts to the sweep cap; their cp-table
        # margins move by about 2e-11 at p = inf, and their rows have no
        # sweeps or stop fields
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        data["schema"] = "3"
        self._reseal(out, data)
        capsys.readouterr()
        assert run_cli("replay", str(out)) == 2
        err = capsys.readouterr().err
        assert "schema mismatch" in err and "'3'" in err
        assert "c_p search" in err and "re-run" in err

    @pytest.mark.parametrize("edit", ["witness", "wall_time"])
    def test_replay_non_finite_number_exit_two(self, tmp_path, capsys, edit):
        # JSON has no NaN or Infinity, so a file holding one is no report
        out = self._write_report(tmp_path)
        data = json.loads(out.read_text())
        if edit == "witness":
            data["witnesses"][0]["ratio"] = math.nan
        else:
            data["wall_time"] = math.inf
        out.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli("replay", str(out)) == 2
        assert "non-finite number" in capsys.readouterr().err

    def test_replay_missing_file_exit_two(self, tmp_path):
        assert run_cli("replay", str(tmp_path / "absent.json")) == 2


class TestCpTable:
    def test_csv_to_stdout_and_files(self, tmp_path, capsys):
        out = tmp_path / "cp.json"
        csv_path = tmp_path / "cp.csv"
        code = run_cli(
            "cp-table", "--n", "2", "--grid", "1,2,inf", "--starts", "40",
            "--out", str(out), "--csv", str(csv_path),
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0] == "p,max_found,closed_form,delta"
        assert csv_path.read_text() == stdout
        rep = load_report(out)
        assert rep.suite == "cp-table" and rep.passed

    def test_defaults_come_from_campaign_config(self, tmp_path, monkeypatch):
        # a stand-in suite keeps the run short; the config is what is checked
        monkeypatch.setitem(suites._SUITES, "cp-table", lambda cfg, alg: (True, {"max_delta": 0.0}, []))
        out = tmp_path / "cp.json"
        assert run_cli("cp-table", "--out", str(out)) == 0
        assert load_report(out).config == CampaignConfig(suite="cp-table").to_json()

    def test_unwritable_csv_exit_two(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "cp.csv"
        code = run_cli("cp-table", "--grid", "2", "--starts", "4", "--csv", str(csv_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write output file" in err and str(csv_path) in err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2
