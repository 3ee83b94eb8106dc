"""Scenario file-set parsing, diagnostics and canonical round-trips."""

import math
import shutil
from pathlib import Path

import pytest

from hybridflow.engine import EngineConfig, build_state
from hybridflow.scenario import (DanglingReference, ScenarioFileNotFound,
                                 ScenarioSyntaxError, SchemaViolation,
                                 parse_scenario, serialize_scenario,
                                 write_scenario)
from test_golden import load_bench_scenarios

FIXTURES = Path(__file__).parent / "fixtures"

GOLDEN = [
    FIXTURES / "minimal" / "scenario.xml",
    FIXTURES / "navigation" / "navigation-model.xml",
    FIXTURES / "hybrid" / "scenario.xml",
    FIXTURES / "ring" / "scenario.xml",
    FIXTURES / "jam" / "scenario.xml",
    FIXTURES / "scripted" / "scenario.xml",
]


class TestParsing:
    def test_minimal_scenario_shape(self):
        model = parse_scenario(FIXTURES / "minimal")
        assert len(model.network.roads) == 1
        assert len(model.network.nodes) == 2
        assert len(model.generation_points) == 1
        assert model.time_step == 0.25

    def test_directory_shorthand(self):
        direct = parse_scenario(FIXTURES / "minimal" / "scenario.xml")
        via_dir = parse_scenario(FIXTURES / "minimal")
        assert serialize_scenario(direct) == serialize_scenario(via_dir)

    def test_missing_root_file(self):
        with pytest.raises(ScenarioFileNotFound) as err:
            parse_scenario(FIXTURES / "nowhere" / "scenario.xml")
        assert "nowhere" in str(err.value)

    def test_navigation_destinations_resolved(self):
        model = parse_scenario(FIXTURES / "navigation" / "navigation-model.xml")
        mix = model.generation_points[0].mix
        assert {d[0] for d in mix.destinations} == {"out_main", "out_ramp"}


def _copy_fixture(tmp_path: Path, name="minimal") -> Path:
    target = tmp_path / name
    shutil.copytree(FIXTURES / name, target)
    return target


class TestDiagnostics:
    """Every single-fault mutant must fail with an error naming its file."""

    def test_missing_generation_file(self, tmp_path):
        root = _copy_fixture(tmp_path)
        (root / "in1-generation.xml").unlink()
        with pytest.raises(ScenarioFileNotFound) as err:
            parse_scenario(root)
        assert "in1-generation.xml" in str(err.value)

    def test_truncated_xml(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "infrastructure.xml"
        path.write_text(path.read_text()[:60])
        with pytest.raises(ScenarioSyntaxError) as err:
            parse_scenario(root)
        assert "infrastructure.xml" in str(err.value)
        assert err.value.line >= 1

    def test_dangling_node_reference(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "infrastructure.xml"
        path.write_text(path.read_text().replace('to="nb"', 'to="ghost"'))
        with pytest.raises(DanglingReference) as err:
            parse_scenario(root)
        assert "infrastructure.xml" in str(err.value)
        assert "ghost" in str(err.value)

    def test_lane_count_out_of_bounds(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "infrastructure.xml"
        path.write_text(path.read_text().replace('lanes="2"', 'lanes="6"'))
        with pytest.raises(SchemaViolation) as err:
            parse_scenario(root)
        assert "infrastructure.xml" in str(err.value)

    @pytest.mark.parametrize("old,new,message", [
        ('kind="crossroads"', 'kind="circus"', "<node na kind>: unknown kind 'circus'"),
        ('lanes="2"', 'lanes="6"', "<road r1 lanes>: lane count 6 outside [1, 5]"),
        ('speed_limit="25"/>', 'speed_limit="25"><sign kind="halt" position="5"/></road>',
         "<road r1 sign>: unknown kind 'halt'")])
    def test_infrastructure_vocabulary_messages(self, tmp_path, old, new, message):
        root = _copy_fixture(tmp_path)
        path = root / "infrastructure.xml"
        path.write_text(path.read_text().replace(old, new, 1))
        with pytest.raises(SchemaViolation) as err:
            parse_scenario(root)
        assert str(err.value) == f"{path}: {message}"

    def test_dangling_sink_in_level(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "level.xml"
        path.write_text(path.read_text().replace('road="r1"', 'road="rX"', 1))
        with pytest.raises(DanglingReference) as err:
            parse_scenario(root)
        assert "level.xml" in str(err.value)

    def test_unknown_destination_sink(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "in1-generation.xml"
        path.write_text(path.read_text().replace('sink="out1"', 'sink="bogus"'))
        with pytest.raises(DanglingReference) as err:
            parse_scenario(root)
        assert str(err.value).startswith(f"{path}: dangling reference 'bogus'")

    def test_negative_flow_rate(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "in1-rhythm.xml"
        path.write_text(path.read_text().replace('q="600"', 'q="-5"'))
        with pytest.raises(SchemaViolation) as err:
            parse_scenario(root)
        assert "rhythm" in str(err.value)

    def test_cluster_gap_rejected(self, tmp_path):
        root = _copy_fixture(tmp_path, "hybrid")
        path = root / "level.xml"
        path.write_text(path.read_text().replace('end="700"', 'end="600"', 1))
        with pytest.raises(SchemaViolation) as err:
            parse_scenario(root)
        assert "gap/overlap" in str(err.value)

    def test_unstable_time_step_rejected(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "scenario.xml"
        path.write_text(path.read_text().replace('time_step="0.25"', 'time_step="5"'))
        with pytest.raises(SchemaViolation) as err:
            parse_scenario(root)
        assert "stability" in str(err.value)


def _script(lane=0, extra=""):
    return ('<?xml version="1.0"?>\n<rhythm kind="script">\n'
            f'  <event t="1" lane="{lane}" speed="20"{extra}/>\n</rhythm>\n')


def _append(closing, element):
    return closing, f"  {element}\n{closing}"


# single-fault mutants of the minimal fixture: (file, old text, new text);
# old text None replaces the whole file.  The road has lanes 0 and 1.
BAD_INPUTS = {
    "flow_q_inf": ("in1-rhythm.xml", 'q="600"', 'q="inf"'),
    "flow_q_nan": ("in1-rhythm.xml", 'q="600"', 'q="nan"'),
    "time_step_nan": ("scenario.xml", 'time_step="0.25"', 'time_step="nan"'),
    "duration_inf": ("scenario.xml", 'duration="600"', 'duration="inf"'),
    "lod_target_dx_zero": ("scenario.xml",
                           *_append("</simulation>", '<lod target_dx="0"/>')),
    "density_nan": ("level.xml", *_append(
        "</level>", '<initial_density road="r1" start="0" end="500" value="nan"/>')),
    "vehicle_v0_text": ("level.xml", *_append(
        "</level>", '<vehicle road="r1" lane="0" position="10" speed="5" v0="abc"/>')),
    "event_v0_text": ("in1-rhythm.xml", None, _script(extra=' v0="abc"')),
    "event_v0_negative": ("in1-rhythm.xml", None, _script(extra=' v0="-1"')),
    "input_lanes_high": ("level.xml", 'lanes="all"', 'lanes="7"'),
    "input_lanes_negative": ("level.xml", 'lanes="all"', 'lanes="-1"'),
    "input_lanes_empty": ("level.xml", 'lanes="all"', 'lanes=""'),
    "event_lane_high": ("in1-rhythm.xml", None, _script(lane=9)),
    "sink_capacity_negative": ("level.xml", '<end_point id="out1" road="r1"/>',
                               '<end_point id="out1" road="r1" capacity="-1"/>'),
    "density_negative": ("level.xml", *_append(
        "</level>", '<initial_density road="r1" start="0" end="500" value="-0.05"/>')),
    "vehicle_speed_negative": ("level.xml", *_append(
        "</level>", '<vehicle road="r1" lane="0" position="10" speed="-5"/>')),
    "vehicle_length_negative": ("level.xml", *_append(
        "</level>", '<vehicle road="r1" lane="0" position="10" speed="5" length="-4"/>')),
    "event_length_negative": ("in1-rhythm.xml", None, _script(extra=' length="-4"')),
    "input_point_id_repeated": ("level.xml", *_append(
        "</level>", '<input_point id="in1" road="r1" lanes="0" '
        'generation_ref="in1-generation.xml" rhythm_ref="in1-rhythm.xml"/>')),
    "end_point_id_repeated": ("level.xml", *_append(
        "</level>", '<end_point id="out1" road="r1"/>')),
    "restriction_reversed": ("level.xml", *_append(
        "</level>", '<restriction road="r1" start="900" end="800" factor="0.5"/>')),
    "restriction_empty": ("level.xml", *_append(
        "</level>", '<restriction road="r1" start="800" end="800" factor="0.5"/>')),
    "restriction_past_road_end": ("level.xml", *_append(
        "</level>", '<restriction road="r1" start="900" end="1000.001" factor="0.5"/>')),
    "density_beyond_road": ("level.xml", *_append(
        "</level>", '<initial_density road="r1" start="5000" end="6000" value="0.01"/>')),
}


def mutate(tmp_path: Path, name: str) -> tuple[Path, str]:
    """A copy of the minimal fixture with one bad input; returns the root
    and the name of the file that holds the fault."""
    filename, old, new = BAD_INPUTS[name]
    root = _copy_fixture(tmp_path)
    path = root / filename
    text = new if old is None else path.read_text().replace(old, new, 1)
    assert text != path.read_text()
    path.write_text(text)
    return root, filename


class TestNumbersAndLanes:
    """Non-finite or negative numbers, unreadable overrides, empty lane lists,
    lanes outside the road, extents off their road and repeated connector ids
    are rejected at load, naming the file; `inf` is read only where the
    canonical serializer writes it."""

    @pytest.mark.parametrize("name", sorted(BAD_INPUTS))
    def test_bad_input_names_its_file(self, tmp_path, name):
        root, filename = mutate(tmp_path, name)
        with pytest.raises(SchemaViolation) as err:
            parse_scenario(root)
        assert str(err.value).startswith(str(root / filename))

    def test_inf_where_the_serializer_writes_it(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "level.xml"
        path.write_text(path.read_text().replace(
            '<end_point id="out1" road="r1"/>',
            '<end_point id="out1" road="r1" capacity="inf"/>\n'
            '  <restriction road="r1" start="0" end="100" factor="0.5" '
            'from_t="0" to_t="inf"/>'))
        model = parse_scenario(root)
        assert model.network.end_points["out1"].capacity == math.inf
        assert model.restrictions[0].to_t == math.inf

    def test_an_extent_may_pass_its_road_end_by_the_cluster_tolerance(self, tmp_path):
        root = _copy_fixture(tmp_path)
        path = root / "level.xml"
        path.write_text(path.read_text().replace("</level>", (
            '  <restriction road="r1" start="0" end="1000.0000000001" factor="0.5"/>\n'
            '  <initial_density road="r1" start="900" end="1000.0000000001" value="0.01"/>\n'
            "</level>")))
        model = parse_scenario(root)
        assert [(r.start, r.end) for r in model.restrictions] == [(0.0, 1000.0000000001)]
        assert [(d.start, d.end) for d in model.densities] == [(900.0, 1000.0000000001)]

    def test_negative_event_speed_means_as_fast_as_allowed(self, tmp_path):
        root = _copy_fixture(tmp_path)
        (root / "in1-rhythm.xml").write_text(_script().replace('speed="20"', 'speed="-1"'))
        model = parse_scenario(root)
        assert model.generation_points[0].events[0][1].speed is None


class TestRoundTrip:
    @pytest.mark.parametrize("root", GOLDEN, ids=lambda p: p.parent.name)
    def test_serialize_reparse_is_canonical_identity(self, root, tmp_path):
        model = parse_scenario(root)
        first = serialize_scenario(model)
        write_scenario(model, tmp_path / "once")
        reparsed = parse_scenario(tmp_path / "once" / "scenario.xml")
        second = serialize_scenario(reparsed)
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], f"{root.parent.name}:{rel} differs"

    @pytest.mark.parametrize("root", GOLDEN, ids=lambda p: p.parent.name)
    def test_golden_fixture_network_is_valid(self, root):
        from hybridflow.network import validate_network
        model = parse_scenario(root)
        assert validate_network(model.network) == []


    def test_release_mix_script_and_lane_subset_sign_round_trip(self, tmp_path):
        root = _copy_fixture(tmp_path)
        infra = root / "infrastructure.xml"
        infra.write_text(infra.read_text().replace(
            'speed_limit="25"/>',
            'speed_limit="25">\n    <sign kind="stop" position="300" lanes="1"/>\n'
            '    <sign kind="speed_limit" position="600" value="15"/>\n  </road>'))
        level = root / "level.xml"
        level.write_text(level.read_text().replace(
            "</level>", '  <release_mix generation_ref="release.xml"/>\n</level>'))
        (root / "release.xml").write_text(
            '<?xml version="1.0"?>\n<generation>\n'
            '  <vehicle_length distribution="uniform" lo="4" hi="6"/>\n'
            '  <param name="v0" distribution="normal" mean="24" sd="2"/>\n</generation>\n')
        (root / "in1-rhythm.xml").write_text(
            '<?xml version="1.0"?>\n<rhythm kind="script">\n'
            '  <event t="1" lane="0" speed="20" v0="22" destination="out1"/>\n'
            '  <event t="2.5" lane="1" speed="-1" length="6"/>\n</rhythm>\n')
        model = parse_scenario(root)
        signs = model.network.roads["r1"].signs
        assert [(s.kind, s.lanes) for s in signs] == [("stop", frozenset({1})),
                                                      ("speed_limit", None)]
        assert model.release_mix.params["v0"].a == 24.0
        assert [t for t, _ in model.generation_points[0].events] == [1.0, 2.5]
        first = serialize_scenario(model)
        assert "release.xml" in first
        write_scenario(model, tmp_path / "once")
        reparsed = parse_scenario(tmp_path / "once" / "scenario.xml")
        assert serialize_scenario(reparsed) == first
        assert reparsed.release_mix == model.release_mix
        assert reparsed.generation_points[0].events == model.generation_points[0].events
        assert reparsed.network.roads["r1"].signs == signs


class TestMultipleLevels:
    @staticmethod
    def two_levels(tmp_path):
        """A one-road scenario whose source and sink are declared in two
        level files."""
        root = tmp_path / "two"
        root.mkdir()
        (root / "scenario.xml").write_text(
            '<?xml version="1.0"?>\n'
            '<simulation time_step="0.25" duration="60">\n'
            '  <infrastructure ref="infra.xml"/>\n'
            '  <level ref="level_a.xml"/>\n  <level ref="level_b.xml"/>\n'
            '</simulation>\n')
        (root / "infra.xml").write_text(
            '<?xml version="1.0"?>\n<infrastructure>\n'
            '  <node id="a" kind="crossroads"/>\n  <node id="b" kind="crossroads"/>\n'
            '  <road id="r" from="a" to="b" length="500" lanes="1" speed_limit="20"/>\n'
            '</infrastructure>\n')
        (root / "level_a.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n'
            '  <input_point id="in" road="r" lanes="all" generation_ref="gen.xml" '
            'rhythm_ref="rhythm.xml"/>\n</level>\n')
        (root / "level_b.xml").write_text(
            '<?xml version="1.0"?>\n<level>\n  <end_point id="out" road="r"/>\n</level>\n')
        (root / "gen.xml").write_text(
            '<?xml version="1.0"?>\n<generation>\n'
            '  <destination sink="out" weight="1"/>\n</generation>\n')
        (root / "rhythm.xml").write_text(
            '<?xml version="1.0"?>\n<rhythm kind="flow">\n'
            '  <flow t="0" q="360"/>\n</rhythm>\n')
        return root

    def test_two_level_files_merge(self, tmp_path):
        root = self.two_levels(tmp_path)
        model = parse_scenario(root)
        assert len(model.levels) == 2
        assert len(model.generation_points) == 1
        assert "out" in model.network.end_points
        first = serialize_scenario(model)
        write_scenario(model, tmp_path / "round")
        assert serialize_scenario(parse_scenario(tmp_path / "round")) == first

    @pytest.mark.parametrize("level,element", [
        ("level_b.xml", '<input_point id="in" road="r" lanes="all" generation_ref="gen.xml" '
                        'rhythm_ref="rhythm.xml"/>'),
        ("level_a.xml", '<end_point id="out" road="r"/>')], ids=["input_point", "end_point"])
    def test_a_connector_id_names_one_connector_across_levels(self, tmp_path, level, element):
        root = self.two_levels(tmp_path)
        path = root / level
        path.write_text(path.read_text().replace("</level>", f"  {element}\n</level>"))
        tag, cid = element.split()[0][1:], element.split('"')[1]
        with pytest.raises(SchemaViolation) as err:
            parse_scenario(root)
        assert str(err.value) == (f"{root / 'level_b.xml'}: <{tag} {cid}>: duplicate "
                                  f"{tag.replace('_', ' ')} id")

    def test_each_level_keeps_its_release_mix_file(self, tmp_path):
        root = self.two_levels(tmp_path)
        for name, v0 in (("level_a.xml", 11), ("level_b.xml", 33)):
            release = f"release_{name}"
            level = root / name
            level.write_text(level.read_text().replace(
                "</level>", f'  <release_mix generation_ref="{release}"/>\n</level>'))
            (root / release).write_text(
                '<?xml version="1.0"?>\n<generation>\n'
                f'  <param name="v0" distribution="constant" value="{v0}"/>\n</generation>\n')
        model = parse_scenario(root)
        assert model.release_mix.params["v0"].a == 11.0
        write_scenario(model, tmp_path / "round")
        reparsed = parse_scenario(tmp_path / "round")
        assert reparsed.release_mix == model.release_mix
        assert [lv.release_mix for lv in reparsed.levels] == \
            [lv.release_mix for lv in model.levels]


BENCH_SCENARIOS = load_bench_scenarios()


@pytest.mark.parametrize("workload", sorted(BENCH_SCENARIOS.GENERATORS))
def test_every_benchmark_instance_loads_and_builds(tmp_path, workload):
    """No load-time check may refuse the benchmark's own input: instances 0-2
    of every workload at seeds 1-10 parse and build."""
    for seed in range(1, 11):
        for index in range(3):
            path = BENCH_SCENARIOS.write_instance(workload, seed, index,
                                                  tmp_path / f"{seed}-{index}")
            build_state(parse_scenario(path), EngineConfig(seed=seed))
