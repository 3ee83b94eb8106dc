"""Command-line behavior: exit codes, outputs, reproducibility."""

import json
import shutil
from pathlib import Path

import pytest

from hybridflow.cli import (STEP_COLUMNS, export_step_records,
                            export_transitions, run_command)

FIXTURES = Path(__file__).parent / "fixtures"


def read(path: Path) -> bytes:
    return path.read_bytes()


class TestExitCodes:
    def test_zero_steps_succeeds_with_header_only(self, tmp_path, capsys):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "0", "--seed", "1",
                          "--out", str(tmp_path / "out")])
        assert rc == 0
        steps = (tmp_path / "out" / "steps.csv").read_text()
        assert steps == ",".join(STEP_COLUMNS) + "\n"
        assert "steps=0" in capsys.readouterr().out

    def test_missing_scenario_is_exit_one(self, tmp_path, capsys):
        rc = run_command(["run", "--scenario", str(tmp_path / "nope"),
                          "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "scenario error" in capsys.readouterr().err

    def test_missing_required_flag_is_exit_one(self):
        assert run_command(["run"]) == 1

    def test_broken_scenario_names_offending_file(self, tmp_path, capsys):
        root = tmp_path / "broken"
        shutil.copytree(FIXTURES / "minimal", root)
        (root / "in1-rhythm.xml").unlink()
        rc = run_command(["run", "--scenario", str(root),
                          "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "in1-rhythm.xml" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--seed", "-1"), ("--steps", "-5"),
                                            ("--duration", "-2.5")])
    def test_negative_number_is_exit_one(self, tmp_path, capsys, flag, value):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          flag, value, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert f"argument {flag}: must be a non-negative number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_policy_override_is_exit_one(self, tmp_path):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "5", "--lod", "theta_down=2",
                          "--out", str(tmp_path / "out")])
        assert rc == 1   # rejected as a scenario/config problem

    def test_runtime_error_is_exit_two(self, tmp_path, capsys):
        # parses fine, but the declared macro extent produces a 5 m cell on
        # the first road, which the engine's exact stability check rejects
        root = tmp_path / "sliver"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="10">\n'
            '  <infrastructure ref="infra.xml"/>\n  <level ref="level.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n'
            '  <node id="b" kind="crossroads"/>\n'
            '  <node id="c" kind="crossroads"/>\n'
            '  <road id="r1" from="a" to="b" length="1000" lanes="1" speed_limit="25"/>\n'
            '  <road id="r2" from="b" to="c" length="1000" lanes="1" speed_limit="25"/>\n'
            '  <turn node="b" from_road="r1" from_lane="0" to_road="r2" to_lane="0"/>\n'
            '</infrastructure>\n')
        (root / "level.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n'
            '  <end_point id="out" road="r2"/>\n'
            '  <cluster representation="micro" road="r1" start="0" end="995"/>\n'
            '  <cluster representation="macro">\n'
            '    <extent road="r1" start="995" end="1000"/>\n'
            '    <extent road="r2" start="0" end="1000"/>\n'
            '  </cluster>\n'
            '</level>\n')
        rc = run_command(["run", "--scenario", str(root),
                          "--steps", "5", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "simulation error" in capsys.readouterr().err

    def test_unknown_probe_rejected(self, tmp_path, capsys):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "1", "--probes", "steps,bogus",
                          "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "bogus" in capsys.readouterr().err


class TestOutputs:
    def test_row_arity(self, tmp_path):
        rc = run_command(["run", "--scenario", str(FIXTURES / "hybrid"),
                          "--steps", "3", "--seed", "1",
                          "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "steps.csv").read_text().strip().splitlines()
        # header + 3 steps * (3 cluster rows + 1 totals row)
        assert len(lines) == 1 + 3 * 4
        totals = [l for l in lines[1:] if ",TOTAL," in l]
        assert len(totals) == 3

    def test_json_format(self, tmp_path):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "2", "--format", "json",
                          "--out", str(tmp_path / "out")])
        assert rc == 0
        payload = json.loads((tmp_path / "out" / "steps.json").read_text())
        assert len(payload) == 2
        assert payload[0]["step"] == 1
        assert "clusters" in payload[0]
        assert "total_mass" in payload[0]

    def test_duration_flag(self, tmp_path, capsys):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--duration", "2.5", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "steps=10" in capsys.readouterr().out

    def test_lod_override_applies(self, tmp_path):
        rc = run_command(["run", "--scenario", str(FIXTURES / "jam"),
                          "--steps", "60", "--lod", "persistence=20,cooldown=10",
                          "--out", str(tmp_path / "out")])
        assert rc == 0
        text = (tmp_path / "out" / "transitions.csv").read_text().splitlines()
        refines = [l for l in text if ",refine," in l]
        assert refines and refines[0].split(",")[0] == "20"

    def test_transition_log_masses_match(self, tmp_path):
        rc = run_command(["run", "--scenario", str(FIXTURES / "jam"),
                          "--steps", "80", "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "transitions.csv").read_text().strip().splitlines()
        assert rows[0].startswith("step,kind,")
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[-2]) == pytest.approx(float(fields[-1]), abs=1e-6)

    def test_audit_report_clean(self, tmp_path):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "200", "--out", str(tmp_path / "out")])
        assert rc == 0
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert audit["violations"] == []


class TestReproducibility:
    def run_to(self, out, extra=()):
        rc = run_command(["run", "--scenario", str(FIXTURES / "hybrid"),
                          "--steps", "400", "--seed", "42",
                          "--out", str(out), *extra])
        assert rc == 0

    def test_identical_runs_identical_bytes(self, tmp_path):
        self.run_to(tmp_path / "a")
        self.run_to(tmp_path / "b")
        for name in ("steps.csv", "trajectories.csv", "transitions.csv", "audit.json"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)

    def test_re_export_is_byte_stable(self, tmp_path):
        from hybridflow.engine import EngineConfig, SimulationEngine
        from hybridflow.probes import StepRecordProbe
        from hybridflow.scenario import parse_scenario
        probe = StepRecordProbe()
        engine = SimulationEngine(EngineConfig(steps=5, seed=1), [probe])
        engine.run(parse_scenario(FIXTURES / "minimal"))
        export_step_records(probe.rows, "csv", tmp_path / "one.csv")
        export_step_records(probe.rows, "csv", tmp_path / "two.csv")
        assert read(tmp_path / "one.csv") == read(tmp_path / "two.csv")

    def test_empty_transition_log_is_header_only(self, tmp_path):
        export_transitions([], tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text().startswith("step,kind,")
