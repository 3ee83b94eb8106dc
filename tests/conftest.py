import sys
from pathlib import Path

import pytest
from hypothesis import settings

# allow running the suite from a source checkout without installing
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Property tests replay the same examples on every run, never time out on a
# slow host and keep their example count bounded so the suite stays fast.
settings.register_profile("hybridflow", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("hybridflow")


@pytest.fixture
def sliver_scenario(tmp_path):
    """A scenario that parses, but whose declared macro extent starts with a
    5 m cell on the first road, which `build_state`'s exact stability check
    rejects before any step."""
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
    return root


@pytest.fixture
def one_cluster_ring(tmp_path):
    """The ring fixture's four 500 m roads declared as one macro cluster at
    0.03 veh/m, with a lasting 0.2 restriction on rc between 200 and 300 m:
    a cyclic chain whose only boundary is its wrap."""
    root = tmp_path / "one_cluster_ring"
    root.mkdir()
    ring = Path(__file__).parent / "fixtures" / "ring"
    for name in ("scenario.xml", "infrastructure.xml"):
        (root / name).write_text((ring / name).read_text())
    roads = ("ra", "rb", "rc", "rd")
    (root / "level.xml").write_text(
        '<?xml version="1.0"?>\n<level>\n  <cluster representation="macro">\n'
        + "".join(f'    <extent road="{r}" start="0" end="500"/>\n' for r in roads)
        + '  </cluster>\n'
        + "".join(f'  <initial_density road="{r}" start="0" end="500" value="0.03"/>\n'
                  for r in roads)
        + '  <restriction road="rc" start="200" end="300" factor="0.2" '
          'from_t="0" to_t="10000"/>\n</level>\n')
    return root
