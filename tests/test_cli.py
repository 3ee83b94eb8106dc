"""Command-line behavior: exit codes, outputs, reproducibility."""

import json
import math
import shutil
from pathlib import Path

import pytest

from hybridflow.cli import (STEP_COLUMNS, export_csv, export_step_records,
                            export_transitions, run_command)
from hybridflow import probes
from hybridflow.engine import EngineConfig, EngineState, Probe, SimulationEngine
from hybridflow.probes import StepRecordProbe
from hybridflow.scenario import parse_scenario
from probe_contract import fail_at_step

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

    @pytest.mark.parametrize("override", [
        "target_dx=0", "target_dx=nan", "min_cluster_length=-1",
        "micro_vehicle_budget=-1",
        "target_dx=10"])   # valid policy, but 0.25 s steps are unstable on 10 m cells
    def test_out_of_bounds_policy_override_is_exit_one(self, tmp_path, capsys, override):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "5", "--lod", override,
                          "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "scenario error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("filename,old,new", [
        ("scenario.xml", 'time_step="0.25"', 'time_step="nan"'),
        ("level.xml", 'lanes="all"', 'lanes="7"'),
        ("level.xml", 'lanes="all"', 'lanes=""'),
        ("level.xml", '<end_point id="out1" road="r1"/>',
         '<end_point id="out1" road="r1" capacity="-1"/>\n'
         '  <cluster representation="macro" road="r1" start="0" end="1000"/>'),
        ("level.xml", "</level>",
         '<initial_density road="r1" start="0" end="500" value="-0.05"/>\n</level>'),
        ("level.xml", "</level>",
         '<vehicle road="r1" lane="0" position="10" speed="-5" length="-4"/>\n</level>')])
    def test_bad_number_or_lane_names_its_file(self, tmp_path, capsys,
                                               filename, old, new):
        root = tmp_path / "bad"
        shutil.copytree(FIXTURES / "minimal", root)
        path = root / filename
        path.write_text(path.read_text().replace(old, new, 1))
        rc = run_command(["run", "--scenario", str(root), "--steps", "5",
                          "--out", str(tmp_path / "out")])
        assert rc == 1
        assert str(path) in capsys.readouterr().err

    def test_runtime_error_is_exit_two(self, tmp_path, capsys, monkeypatch):
        fail_at_step(monkeypatch, 3)
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "5", "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "simulation error: SimulationError('injected failure at step 3')" \
            in capsys.readouterr().err

    def test_build_refusal_is_exit_one(self, tmp_path, capsys, sliver_scenario):
        # parses fine; the engine's exact stability check refuses it at build
        rc = run_command(["run", "--scenario", str(sliver_scenario),
                          "--steps", "5", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"scenario error: {sliver_scenario}: cluster c1: time step 0.25 violates "
            "the stability bound for 5.0 m cells\n")
        assert not (tmp_path / "out").exists()

    # mutants of the minimal fixture, whose road r1 (na -> nb) holds source
    # in1 and sink out1: (file, old text, new text, where the error points,
    # what it says); UNREACHABLE adds a road r2 that r1 does not lead to
    UNREACHABLE = ("infrastructure.xml", "</infrastructure>",
                   '  <node id="nc" kind="crossroads"/>\n  <node id="nd" kind="crossroads"/>\n'
                   '  <road id="r2" from="nc" to="nd" length="500" lanes="1" '
                   'speed_limit="25"/>\n</infrastructure>')
    SINK_OUT2 = ("level.xml", "</level>", '  <end_point id="out2" road="r2"/>\n</level>')
    REFUSED = {
        "two_sources_at_a_macro_head": ([
            ("level.xml", 'lanes="all"', 'lanes="0"'),
            ("level.xml", "</level>",
             '  <input_point id="in2" road="r1" lanes="1" generation_ref="in1-generation.xml" '
             'rhythm_ref="in1-rhythm.xml"/>\n'
             '  <cluster representation="macro" road="r1" start="0" end="1000"/>\n</level>')],
            None, "cluster c0: macro extent would drop source in2"),
        "unreachable_vehicle_destination": ([
            UNREACHABLE, SINK_OUT2,
            ("level.xml", "</level>",
             '  <vehicle road="r1" lane="0" position="10" speed="5" destination="out2"/>\n'
             '</level>')],
            "level.xml", "dangling reference 'out2': vehicle destination unknown or "
            "unreachable from road r1"),
        "unreachable_mix_destination": ([
            UNREACHABLE, SINK_OUT2, ("in1-generation.xml", 'sink="out1"', 'sink="out2"')],
            "in1-generation.xml", "dangling reference 'out2': destination of in1 unknown "
            "or unreachable from road r1"),
        "unreachable_event_destination": ([
            UNREACHABLE, SINK_OUT2,
            ("in1-rhythm.xml", '<rhythm kind="flow">\n  <flow t="0" q="600"/>',
             '<rhythm kind="script">\n  <event t="1" lane="0" destination="out2"/>')],
            "in1-rhythm.xml", "dangling reference 'out2': event destination unknown or "
            "unreachable from road r1"),
    }

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_input_is_exit_one(self, tmp_path, capsys, case):
        edits, filename, message = self.REFUSED[case]
        root = tmp_path / "refused"
        shutil.copytree(FIXTURES / "minimal", root)
        for name, old, new in edits:
            path = root / name
            assert old in path.read_text()
            path.write_text(path.read_text().replace(old, new, 1))
        rc = run_command(["run", "--scenario", str(root), "--steps", "400",
                          "--out", str(tmp_path / "out")])
        assert rc == 1
        where = root / filename if filename else root
        assert capsys.readouterr().err == f"scenario error: {where}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("probes,written", [
        ("steps,trajectories,transitions,audit",
         ["audit.json", "steps.csv", "trajectories.csv", "transitions.csv"]),
        ("steps", ["steps.csv"])])
    def test_inconsistent_snapshot_is_exit_two(self, tmp_path, capsys, monkeypatch,
                                               probes, written):
        # the structural check runs whatever --probes lists
        check = EngineState.consistency_errors
        monkeypatch.setattr(EngineState, "consistency_errors", lambda state: check(state)
                            + (["injected"] if state.step == 5 else []))
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"), "--steps", "10",
                          "--probes", probes, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "warning: 1 inconsistent snapshots" in capsys.readouterr().err
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == written

    def test_probe_failure_is_exit_two(self, tmp_path, capsys, monkeypatch):
        # the other probes and the outputs survive a failing probe
        record = StepRecordProbe.on_step_end

        def fail_at_three(probe, state):
            if state.step == 3:
                raise RuntimeError("injected probe failure")
            record(probe, state)

        monkeypatch.setattr(StepRecordProbe, "on_step_end", fail_at_three)
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"), "--steps", "10",
                          "--out", str(tmp_path / "out")])
        assert rc == 2
        assert ("warning: 1 probe failures, the first in StepRecordProbe.on_step_end: "
                "RuntimeError('injected probe failure')") in capsys.readouterr().err
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == \
            ["audit.json", "steps.csv", "trajectories.csv", "transitions.csv"]
        rows = (tmp_path / "out" / "steps.csv").read_text().splitlines()[1:]
        assert sorted({int(row.split(",")[0]) for row in rows}) == [1, 2, 4, 5, 6, 7, 8, 9, 10]

    def test_ring_without_its_wrap_is_exit_two(self, tmp_path, capsys, monkeypatch,
                                               one_cluster_ring):
        # a one-cluster ring whose wrap interface is never made, split by its
        # jam: the ledger balances, but the structural check sees the gap
        reindex = EngineState.reindex

        def without_wrap(state):
            reindex(state)
            wrap = state.interfaces.pop(("chain0", 0))
            del state.itf_down[wrap.upstream_id], state.itf_up[wrap.downstream_id]

        monkeypatch.setattr(EngineState, "reindex", without_wrap)
        rc = run_command(["run", "--scenario", str(one_cluster_ring), "--steps", "20",
                          "--seed", "1", "--out", str(tmp_path / "out")])
        assert rc == 2
        # one problem at each of the 22 instants: initialized, 20 steps, final
        assert "warning: 22 inconsistent snapshots" in capsys.readouterr().err
        assert json.loads((tmp_path / "out" / "audit.json").read_text())["violations"] == []
        assert ",split," in (tmp_path / "out" / "transitions.csv").read_text()

    def test_unrouted_vehicle_before_a_branch_runs(self, tmp_path, capsys):
        # no destination and two roads on: no lane leads on, so navigation
        # has no target and the vehicle is held at the node
        root = tmp_path / "navigation"
        shutil.copytree(FIXTURES / "navigation", root)
        level = root / "microscopicLevel" / "navigation-level.xml"
        level.write_text(level.read_text().replace(
            "</level>", '  <vehicle road="main1" lane="0" position="800" speed="10"/>\n</level>'))
        rc = run_command(["run", "--scenario", str(root / "navigation-model.xml"),
                          "--steps", "50", "--out", str(tmp_path / "out")])
        assert rc == 0, capsys.readouterr().err

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

    def test_summary_counts_transitions_without_the_transitions_probe(self, tmp_path,
                                                                      capsys):
        def run(probes):
            rc = run_command(["run", "--scenario", str(FIXTURES / "jam"),
                              "--steps", "80", "--seed", "42", "--probes", probes,
                              "--out", str(tmp_path / probes)])
            assert rc == 0
            return capsys.readouterr().out
        logged = (tmp_path / "steps,transitions" / "transitions.csv")
        assert "transitions=3 " in run("steps,transitions")
        assert len(logged.read_text().splitlines()) == 1 + 3
        assert "transitions=3 " in run("steps")

    def test_audit_report_clean(self, tmp_path):
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "200", "--out", str(tmp_path / "out")])
        assert rc == 0
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        assert audit["violations"] == []

    def test_audit_records_a_ledger_violation(self, tmp_path, monkeypatch):
        # a residual above LEDGER_TOLERANCE after one step is listed, and only then
        residual = EngineState.ledger_residual
        monkeypatch.setattr(EngineState, "ledger_residual", lambda state: residual(state)
                            + (1e-3 if state.step == 5 else 0.0))
        rc = run_command(["run", "--scenario", str(FIXTURES / "minimal"),
                          "--steps", "10", "--out", str(tmp_path / "out")])
        assert rc == 0
        audit = json.loads((tmp_path / "out" / "audit.json").read_text())
        (violation,) = audit["violations"]
        assert (violation["step"], violation["kind"]) == (5, "ledger")
        assert violation["value"] == pytest.approx(1e-3, abs=1e-9)
        assert abs(audit["final_residual"]) <= 1e-9


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


class ClusterByClusterRows(Probe):
    """`StepRecordProbe`'s cluster rows built one cluster at a time: the
    segment's `total_mass()` and `mean_speed()`, and the lane length walked
    over the chain's pieces, every step."""

    def __init__(self):
        self.rows: list[tuple] = []

    def on_step_end(self, state: EngineState) -> None:
        for chain_id in sorted(state.order):
            for cluster in state.chain_clusters(chain_id):
                lane_length = probes._lane_length(state, cluster)
                if cluster.segment is None:
                    count = float(len(cluster.vehicles))
                    speed = (sum(v.speed for v in cluster.vehicles.values()) / count
                             if count else state.fd.v_f)
                else:
                    count = cluster.segment.total_mass()
                    speed = cluster.segment.mean_speed()
                density = count / lane_length if lane_length > 0 else 0.0
                inflow, outflow = state.last_flows.get(cluster.id, (0.0, 0.0))
                self.rows.append((state.step, state.time, cluster.id, chain_id,
                                  cluster.representation, cluster.start, cluster.end,
                                  count, density, speed, inflow, outflow,
                                  None, None, None))


def bits(row: tuple) -> tuple:
    return tuple(x.hex() if isinstance(x, float) else x for x in row)


class TestStepRecordProbe:
    def test_rows_equal_the_cluster_by_cluster_rows(self):
        # the jam fixture splits, refines, merges and coarsens under LOD, so
        # extents change and macro segments are rebuilt during the run; the
        # same probe then records runs of two other networks, where cluster
        # ids start again at c0 and jam's extent [0, 1000) has two lanes
        probe = StepRecordProbe()
        for fixture, steps, kinds in (("jam", None, {"split", "refine", "merge"}),
                                      ("minimal", 40, set()), ("hybrid", 40, set())):
            reference, held = ClusterByClusterRows(), len(probe.rows)
            state = SimulationEngine(EngineConfig(steps=steps, seed=1),
                                     [reference, probe]).run(parse_scenario(FIXTURES / fixture))
            assert kinds <= {t.kind for t in state.transitions}
            rows = [row for row in probe.rows[held:] if row[2] != "TOTAL"]
            after = {t.step + d for t in state.transitions for d in (0, 1)}
            assert after <= {row[0] for row in rows}
            assert len(rows) == len(reference.rows)
            for row, expected in zip(rows, reference.rows):
                assert bits(row) == bits(expected)


class TestExportCsv:
    def test_values_render_through_fmt(self, tmp_path):
        # None is empty, ints are str, both infinities read inf, and floats
        # keep 9 significant digits with Python's %g spelling
        values = [None, 0, -12, math.inf, -math.inf, math.nan, -0.0, 5e-324,
                  1 / 3, 1234567894.0, 0.1 + 0.2, 1e-05, "TOTAL"]
        export_csv(("value", "twice"), [(x, x) for x in values], tmp_path / "v.csv")
        assert (tmp_path / "v.csv").read_text().splitlines() == ["value,twice"] + [
            f"{text},{text}" for text in
            ["", "0", "-12", "inf", "inf", "nan", "-0", "4.94065646e-324",
             "0.333333333", "1.23456789e+09", "0.3", "1e-05", "TOTAL"]]

    def test_failing_rows_leave_no_fragment_and_keep_the_old_file(self, tmp_path):
        target = tmp_path / "steps.csv"
        target.write_bytes(b"old bytes\n")

        def rows():
            yield (1, 0.25)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            export_csv(("step", "time"), rows(), target)
        assert [path.name for path in tmp_path.iterdir()] == ["steps.csv"]
        assert target.read_bytes() == b"old bytes\n"
