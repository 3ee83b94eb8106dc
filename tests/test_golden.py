"""Golden outputs: the CLI's files on every fixture, pinned byte for byte.

Each fixture runs `hybridflow run --steps 1200 --seed 42 --format csv`, and
the SHA-256 of each output file must equal the pinned digest below.  The
same run with `--format json` writes `steps.json` in place of `steps.csv`,
and that file is pinned too.  A change that only restructures or speeds up
the engine must leave every digest as it is.

The `scripted` fixture is the one whose source replays a script: its events
cover an explicit speed, `speed="-1"`, driver overrides, destinations and
two events at one instant on one lane, so the second waits in the retry
queue; three `<vehicle>` elements seed it with overrides of their own.

The fixtures carry at most about 17 micro vehicles, so a dense case pins
the many-vehicle micro path as well: instances 0-2 of the benchmark's
`micro_corridor` workload at seed 1 (about 390 vehicles each), built with
`bench/scenarios.py` and run for 300 steps, each pinned by its final
`state_digest`.  An instance that aborts with `OverlapDetected` gives its step
and message instead, so an abort shows as a readable mismatch.  Instance 0
of `macro_network` at seed 1 (40 all-macro corridors, about 4,000 cells),
run the same way, pins the macro path: the cell store, the LOD observation
and the macro-entry generators.  Instance 0 of `hybrid_jams_cli` at seed 1,
run for 1,200 steps, pins the hybrid path that takes every structural
action: its final `state_digest`, the count of each (kind, trigger) pair in
the transition log and the number of inserted vehicles.

To re-pin after a change that is meant to move outputs, run this test: its
failure message prints the whole table with the new digests, ready to paste
over GOLDEN or GOLDEN_JSON, or the new outcome of a dense instance, ready to paste into
DENSE.  List every re-pinned fixture and file in CHANGES.md, with the
reason the output moved.
"""

import collections
import hashlib
import importlib.util
from pathlib import Path

import pytest

from hybridflow.cli import run_command
from hybridflow.engine import EngineConfig, OverlapDetected, advance_step, build_state
from hybridflow.scenario import parse_scenario

FIXTURES = Path(__file__).parent / "fixtures"
BENCH_SCENARIOS = Path(__file__).resolve().parent.parent / "bench" / "scenarios.py"

SCENARIOS = {
    "minimal": FIXTURES / "minimal",
    "hybrid": FIXTURES / "hybrid",
    "jam": FIXTURES / "jam",
    "ring": FIXTURES / "ring",
    "navigation": FIXTURES / "navigation" / "navigation-model.xml",
    "scripted": FIXTURES / "scripted",
}

OUTPUTS = ("steps.csv", "trajectories.csv", "transitions.csv", "audit.json")

# an empty transition log: the header line alone
NO_TRANSITIONS = "79c92c9dedfb158b27c8e709265bebb515de6481a6a2d0acbc4db9541a38265a"

GOLDEN = {
    "minimal": {
        "steps.csv": "4a1316ad6ba565d5b1cde131681524e320fa90b55a0c2aa978384ada35db7f11",
        "trajectories.csv": "0332d2b06cb9e54ec61227d644fb2b085acb45d3d555bcf69e1128d1d49b2877",
        "transitions.csv": NO_TRANSITIONS,
        "audit.json": "dffc823e91669aed841be23fe79a744a3d68767dc4c840d958818ee713f1c82e",
    },
    "hybrid": {
        "steps.csv": "4c4b60c1e5bd50aa6fba0145b32a9a5bde929ef7248ec8de6ae0d719fa74c122",
        "trajectories.csv": "ba2477f48fb61a15ab12d93818fdb6b3e85b2ae66d9a4273a44e33d351356bc2",
        "transitions.csv": NO_TRANSITIONS,
        "audit.json": "64bfc0adde6ffa380e64bf08c7384b1ed9cb1cb9d274084aebbe648ac2ce5857",
    },
    "jam": {
        "steps.csv": "0505f2058cf403a7be805df955bea5b36d7b97143784015e8af2ff1f17ca0ba7",
        "trajectories.csv": "8f8fbce649f924f6e809ff0ab4beed625f83c711fdfcf96d7612288926ac80e8",
        "transitions.csv": "c261fadf4143680c16e5025e9c92861ac20e5cc79cc2de9b518519e02d83a00f",
        "audit.json": "fd408e6aa135afa600b196217049040f981a307e1303bfba739c9189922fd16a",
    },
    "ring": {
        "steps.csv": "0cba1c2be2314c8677c515929053d86a29fdeadf2991066302db75f1c9c5671e",
        "trajectories.csv": "91a41b25f7371a925cc0e130ccbe7b74a57f9232a2b5d7ae0a14b62d32ca6386",
        "transitions.csv": NO_TRANSITIONS,
        "audit.json": "84438a705c8d6daa4c57f60e8ad2590c5bb73e3ff24c72986f0f3ab9e72fb5ed",
    },
    "navigation": {
        "steps.csv": "feeb305a20a9c0a55ffbc1186afac7407819d87890ca5e2448be777e3c764968",
        "trajectories.csv": "efc49857f209e6c96b64e02cf7c869014a2083b7bf528ed92e995c023a21ec07",
        "transitions.csv": NO_TRANSITIONS,
        "audit.json": "867f5cab0466ceb25cce2187dd5d9e57c3000d15456b6087f07c47665b4b312c",
    },
    "scripted": {
        "steps.csv": "16e642f5e94b9cf270c9314071fb07ee57ae89c654aad1c8e4f89114f15500f1",
        "trajectories.csv": "98b438d72477a1f01e540d4a9458337a443e198191cc7f9c64bc48d374ed3e41",
        "transitions.csv": NO_TRANSITIONS,
        "audit.json": "121092164c1ac25c784770b00fafd6a894cdaf9339af708a4d480cb1bac01801",
    },
}


# steps.json of the same runs with --format json
GOLDEN_JSON = {
    "minimal": "5b7dedc8cc07612388466d666e7a03243316a194cf0a2fd0dd7bbd9385259e37",
    "hybrid": "5be104094cd8b645691b91560909705a476dda696a756abbb5383580a41aba2e",
    "jam": "4a5b0d88954a89c6c845d120f1eb13af497a1bf54ba924a00f6038824547be30",
    "ring": "42d067c58eee3bc008ea55e5dcb7de0a74577feceb1a4df5a62ae1abe938c746",
    "navigation": "e57cb4dd2a0aac2b82e1cccf8f20861d0e80aef39d9aab3f6f14748f743a8ccc",
    "scripted": "f7823b802fe65ed5ef044c773c0d9bde4e50a838ec2c7d02233cbc364332ca79",
}


def run_fixtures(tmp_path_factory, fmt, outputs):
    """SHA-256 of the given output files of every fixture, run in one format."""
    out = {}
    for name, scenario in SCENARIOS.items():
        target = tmp_path_factory.mktemp(f"{name}-{fmt}")
        rc = run_command(["run", "--scenario", str(scenario), "--steps", "1200",
                          "--seed", "42", "--format", fmt, "--out", str(target)])
        assert rc == 0, f"{name} exited {rc}"
        out[name] = {f: hashlib.sha256((target / f).read_bytes()).hexdigest()
                     for f in outputs}
    return out


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """SHA-256 of every output file of every fixture, run once."""
    return run_fixtures(tmp_path_factory, "csv", OUTPUTS)


@pytest.fixture(scope="module")
def json_digests(tmp_path_factory):
    return {name: d["steps.json"]
            for name, d in run_fixtures(tmp_path_factory, "json", ("steps.json",)).items()}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_outputs_match_pinned_digests(digests, name):
    moved = [f for f in OUTPUTS if digests[name][f] != GOLDEN[name][f]]
    table = "\n".join(f"    {n!r}: {d!r}," for n, d in digests.items())
    assert not moved, f"{name}: {moved} moved; digests now:\n{table}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_steps_json_matches_pinned_digest(json_digests, name):
    table = "\n".join(f"    {n!r}: {d!r}," for n, d in json_digests.items())
    assert json_digests[name] == GOLDEN_JSON[name], f"{name}: moved; digests now:\n{table}"


# micro_corridor, seed 1: instance -> (outcome, step reached, message or digest)
DENSE = {
    0: ("state_digest", 300, "e47d099f24cb98f3468aa8f7e25cf9a58656b1fc15e52cffc442521f1357678c"),
    1: ("state_digest", 300, "ecfb5700da1774967a53aa8561c71bee56ab4a1185874c0dc3084137c0222a3f"),
    2: ("state_digest", 300, "892daa011cae2f00fe79bb1472e0a28fe5f72e48d59f6e69aa1f43aceb906dec"),
}


def load_bench_scenarios():
    spec = importlib.util.spec_from_file_location("bench_scenarios", BENCH_SCENARIOS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("index", sorted(DENSE))
def test_dense_micro_corridor(tmp_path, index):
    """Instances 0 and 1 used to abort (at steps 10 and 193), each when two
    vehicles from lanes 0 and 2 changed into lane 1 about 4 m apart in one
    step; only the front one of such a pair changes lanes now."""
    path = load_bench_scenarios().write_instance("micro_corridor", 1, index, tmp_path)
    config = EngineConfig(seed=1)
    state = build_state(parse_scenario(path), config)
    try:
        for _ in range(300):
            advance_step(state, config)
        outcome = ("state_digest", state.step, state.state_digest())
    except OverlapDetected as exc:
        outcome = ("OverlapDetected", state.step, str(exc))
    assert outcome == DENSE[index], f"instance {index} now gives {outcome!r}"


# macro_network, seed 1, instance 0: final state_digest after 300 steps
DENSE_MACRO = "442e960a6db908ea711c5f178d44e684776d94c31caf7dfaf0400b5938a80b76"


def test_dense_macro_network(tmp_path):
    path = load_bench_scenarios().write_instance("macro_network", 1, 0, tmp_path)
    config = EngineConfig(seed=1)
    state = build_state(parse_scenario(path), config)
    for _ in range(300):
        advance_step(state, config)
    assert state.state_digest() == DENSE_MACRO, f"now {state.state_digest()!r}"


# hybrid_jams_cli, seed 1, instance 0, after 1,200 steps: final state_digest,
# (kind.trigger -> count) of the transition log, inserted vehicles
DENSE_HYBRID = ("e93f64ef7b2f497a544c7c6a3d328671ac700a82ecbcc39d3e4ff3fe261229c4",
                {"split.jam": 8, "refine.jam": 4, "merge.recovery": 10,
                 "coarsen.recovery": 4, "coarsen.budget": 2},
                776)


def test_dense_hybrid_jams_cli(tmp_path):
    path = load_bench_scenarios().write_instance("hybrid_jams_cli", 1, 0, tmp_path)
    config = EngineConfig(seed=1)
    state = build_state(parse_scenario(path), config)
    for _ in range(1200):
        advance_step(state, config)
    actions = collections.Counter(f"{t.kind}.{t.trigger}" for t in state.transitions)
    outcome = (state.state_digest(), dict(actions), state.ledger.inserted)
    assert outcome == DENSE_HYBRID, f"now {outcome!r}"
