"""Jam detection counters, structural operations and transition planning."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hybridflow.hybrid import MACRO, MICRO, BoundaryInterface, Cluster, pos_key
from hybridflow.lod import Action, LodController, LodPolicy, merge_clusters, split_cluster
from hybridflow.macro import CellStore, FundamentalDiagram, MacroSegment
from hybridflow.micro import Vehicle
from hybridflow.network import Chain

FD = FundamentalDiagram()
POLICY = LodPolicy()

CHAIN = Chain(id="chain0", roads=("r",), offsets=(0.0,), length=1000.0, cyclic=False)


def macro_cluster(cid="m", start=0.0, end=1000.0, rho=0.0):
    n = int((end - start) / 100.0)
    cluster = Cluster(id=cid, chain_id="chain0", start=start, end=end)
    cluster.segment = MacroSegment(dx=[100.0] * n, lanes=[1.0] * n,
                                   rho=np.full(n, rho), fd=FD,
                                   start=start + np.arange(n) * 100.0)
    return cluster


def micro_cluster_with(cid, start, end, positions):
    cluster = Cluster(id=cid, chain_id="chain0", start=start, end=end)
    for i, pos in enumerate(positions):
        veh = Vehicle(id=f"{cid}_v{i}", road="r", lane=0, position=pos, speed=20.0)
        cluster.vehicles[veh.id] = veh
    return cluster


# the stores here are observed, never stepped: no cell size fails the CFL check
STORE_DT = 0.0


def engine_store(clusters, held=None):
    """The cell store the engine observes: every macro cluster's segment in
    (chain, start) order, with `held` kept while it holds those segments."""
    macro = sorted((c for c in clusters if c.representation == MACRO),
                   key=lambda c: (c.chain_id, c.start))
    if held is not None and len(held.segments) == len(macro) and all(
            seg is c.segment for seg, c in zip(held.segments, macro)):
        return held
    return CellStore([c.segment for c in macro], FD, STORE_DT)


def observe(controller, clusters, ratios, cell_ratios, step, store=None):
    """One observation through the cell store, with `cell_ratios` given per
    macro cluster id; returns the store observed."""
    store = engine_store(clusters, store)
    by_segment = {c.segment: cell_ratios[c.id] for c in clusters
                  if c.representation == MACRO}
    cells = np.concatenate([by_segment[seg] for seg in store.segments]) \
        if store.segments else np.empty(0)
    controller.observe(clusters, ratios, store, cells, step)
    return store


def observe_n(controller, clusters, ratios, cell_ratios, steps, start=0):
    store = None
    for k in range(steps):
        store = observe(controller, clusters, ratios, cell_ratios, start + k, store)
    return store


def jammed(cluster, policy=POLICY):
    """Per-cell jam flags: slow for at least `persistence` observations."""
    return cluster.segment.slow >= policy.persistence


class TestPolicy:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            LodPolicy(theta_down=0.9, theta_up=0.8)
        with pytest.raises(ValueError):
            LodPolicy(persistence=0)

    @pytest.mark.parametrize("field,value", [
        ("target_dx", 0.0), ("target_dx", -5.0), ("target_dx", float("nan")),
        ("target_dx", float("inf")), ("min_cluster_length", -1.0),
        ("min_cluster_length", float("nan")), ("micro_vehicle_budget", -1)])
    def test_sizes_and_budget_bounded(self, field, value):
        with pytest.raises(ValueError):
            LodPolicy(**{field: value})
        LodPolicy(min_cluster_length=0.0, micro_vehicle_budget=0)   # the bounds themselves


class TestDetectJam:
    def test_free_flow_never_flags(self):
        ctl = LodController(POLICY)
        cluster = macro_cluster(rho=0.01)
        ratios = {cluster.id: 1.0}
        cells = {cluster.id: np.ones(10)}
        observe_n(ctl, [cluster], ratios, cells, 100)
        assert not jammed(cluster).any()

    def test_flag_appears_exactly_at_persistence(self):
        ctl = LodController(POLICY)
        cluster = macro_cluster(rho=0.12)
        # ratio for rho=0.12 is about 0.0385, well under theta_down
        cells = {cluster.id: np.full(10, 0.0385)}
        ratios = {cluster.id: 0.0385}
        store = None
        for k in range(POLICY.persistence - 1):
            store = observe(ctl, [cluster], ratios, cells, k, store)
            assert not jammed(cluster).any(), f"flagged early at {k}"
        observe(ctl, [cluster], ratios, cells, POLICY.persistence - 1, store)
        assert jammed(cluster).all()

    def test_oscillating_ratio_never_flags(self):
        ctl = LodController(POLICY)
        cluster = macro_cluster(rho=0.05)
        store = None
        for k in range(200):
            ratio = 0.2 if k % 2 == 0 else 0.9
            store = observe(ctl, [cluster], {cluster.id: ratio},
                            {cluster.id: np.full(10, ratio)}, k, store)
            assert not jammed(cluster).any()

    def test_counters_survive_splits(self):
        ctl = LodController(POLICY)
        cluster = macro_cluster(rho=0.12)
        cells = {cluster.id: np.full(10, 0.0385)}
        observe_n(ctl, [cluster], {cluster.id: 0.0385}, cells, POLICY.persistence)
        left, right = split_cluster(cluster, 500.0, CHAIN)
        assert jammed(left).all()
        assert jammed(right).all()


class TestCountersLiveOnTheSegment:
    def test_store_columns_are_the_segments_and_observe_advances_them(self):
        ctl = LodController(POLICY)
        clusters = [macro_cluster("a", 0.0, 400.0), macro_cluster("b", 400.0, 1000.0)]
        ratios = {c.id: 0.3 for c in clusters}
        cells = {"a": np.full(4, 0.3), "b": np.array([0.3, 1.0, 0.3, 0.3, 1.0, 0.3])}
        store = observe(ctl, clusters, ratios, cells, 0)
        # a rebuilt store over the same segments takes over their counters
        rebuilt = CellStore(store.segments, FD, STORE_DT)
        assert rebuilt is not store
        for cluster in clusters:
            for name in MacroSegment.COLUMNS:
                assert np.shares_memory(getattr(cluster.segment, name),
                                        getattr(rebuilt, name)), name
        ctl.observe(clusters, ratios, rebuilt, np.concatenate([cells["a"], cells["b"]]), 1)
        assert clusters[0].segment.slow.tolist() == [2, 2, 2, 2]
        assert clusters[1].segment.slow.tolist() == [2, 0, 2, 2, 0, 2]


class DictCounters:
    """Reference for the jam counters: one dict entry per (chain, cell key),
    updated cell by cell."""

    def __init__(self, policy):
        self.policy = policy
        self.cell_low: dict[tuple[str, int], int] = {}

    def forget(self, cluster):
        """A refine ends the counters of the cluster's cells."""
        for start in cluster.segment.start:
            self.cell_low.pop((cluster.chain_id, pos_key(float(start))), None)

    def observe(self, clusters, cell_ratios):
        live = set()
        for cluster in clusters:
            if cluster.representation != MACRO:
                continue
            for start, ratio in zip(cluster.segment.start, cell_ratios[cluster.id]):
                key = (cluster.chain_id, pos_key(float(start)))
                live.add(key)
                if ratio < self.policy.theta_down:
                    self.cell_low[key] = self.cell_low.get(key, 0) + 1
                else:
                    self.cell_low[key] = 0
        for key in [k for k in self.cell_low if k not in live]:
            del self.cell_low[key]

    def detect_jam(self, cluster):
        return np.array([self.cell_low.get((cluster.chain_id, pos_key(float(s))), 0)
                         >= self.policy.persistence for s in cluster.segment.start],
                        dtype=bool)


ORACLE_CHAINS = {
    "open": Chain(id="open", roads=("o",), offsets=(0.0,), length=2000.0, cyclic=False),
    "ring": Chain(id="ring", roads=("g",), offsets=(0.0,), length=1500.0, cyclic=True),
}


def fresh_macro(cid, chain_id, start, end, target_dx):
    """Macro cluster over [start, end) with equal cells near target_dx."""
    n = max(1, round((end - start) / target_dx))
    cell = (end - start) / n
    cluster = Cluster(id=cid, chain_id=chain_id, start=start, end=end)
    cluster.segment = MacroSegment(dx=[cell] * n, lanes=[1.0] * n,
                                   rho=np.zeros(n), fd=FD,
                                   start=start + np.arange(n) * cell)
    return cluster


def assert_cells_tile(cluster):
    """The segment's cells cover the cluster's extent end to end."""
    seg = cluster.segment
    assert seg.start[0] == pytest.approx(cluster.start, abs=1e-6)
    assert np.allclose(seg.start[1:], seg.start[:-1] + seg.dx[:-1], rtol=0.0, atol=1e-6)
    assert seg.start[-1] + seg.dx[-1] == pytest.approx(cluster.end, abs=1e-6)


class TestCountersMatchDictReference:
    """Random observations interleaved with splits, merges, refines,
    coarsens and cell starts replaced by equal new arrays, on an open and a
    cyclic chain: after every operation the flags of the segments' counters
    equal the dict-keyed reference, which forgets a refined cluster's cells,
    for every macro cluster, and every segment's cells tile its cluster."""

    @given(st.data())
    def test_flags_equal_reference(self, data):
        policy = LodPolicy(persistence=3)
        ctl, ref = LodController(policy), DictCounters(policy)
        ids = iter(f"k{i}" for i in range(10_000))
        store = None
        clusters = [fresh_macro(next(ids), chain.id, 0.0, chain.length,
                                data.draw(st.sampled_from([50.0, 75.0, 100.0, 130.0])))
                    for chain in ORACLE_CHAINS.values()]
        ratio = st.sampled_from([0.1, 0.3, policy.theta_down, 0.7, 1.0])

        for _ in range(data.draw(st.integers(1, 40))):
            kind = data.draw(st.sampled_from(
                ["observe", "observe", "observe", "split", "merge", "refine", "coarsen",
                 "relayout"]))
            macro = [c for c in clusters if c.representation == MACRO]
            micro = [c for c in clusters if c.representation == MICRO]
            if kind == "relayout":
                # equal cell starts in a new array, then an observation
                if not macro:
                    continue
                target = data.draw(st.sampled_from(macro))
                target.segment.start = target.segment.start.copy()
                store = None
            if kind in ("observe", "relayout"):
                cell_ratios = {c.id: np.array(data.draw(st.lists(
                    ratio, min_size=len(c.segment), max_size=len(c.segment))))
                    for c in macro}
                shown = data.draw(st.permutations(clusters))
                store = observe(ctl, shown, {c.id: 1.0 for c in shown}, cell_ratios, 0, store)
                ref.observe(shown, cell_ratios)
            elif kind == "split":
                splittable = [c for c in macro if len(c.segment) > 1] + micro
                if not splittable:
                    continue
                target = data.draw(st.sampled_from(splittable))
                if target.representation == MACRO:
                    at = float(target.segment.start[data.draw(
                        st.integers(1, len(target.segment) - 1))])
                else:
                    at = data.draw(st.sampled_from([target.start + 0.25 * target.length,
                                                    target.start + 0.5 * target.length]))
                left, right = split_cluster(target, at, ORACLE_CHAINS[target.chain_id])
                left.id, right.id = next(ids), next(ids)
                if target.representation == MACRO:
                    cut = len(left.segment)
                    assert left.segment.start.tobytes() == target.segment.start[:cut].tobytes()
                    assert right.segment.start.tobytes() == target.segment.start[cut:].tobytes()
                clusters[clusters.index(target):clusters.index(target) + 1] = [left, right]
            elif kind == "merge":
                pairs = [(a, b) for a, b in zip(clusters, clusters[1:])
                         if a.chain_id == b.chain_id and a.end == b.start
                         and a.representation == b.representation]
                if not pairs:
                    continue
                a, b = data.draw(st.sampled_from(pairs))
                shared = BoundaryInterface(id="i", chain_id=a.chain_id, position=b.start,
                                           upstream_id=a.id, downstream_id=b.id, lanes=1)
                merged, _ = merge_clusters(a, b, shared, lambda: next(ids))
                clusters[clusters.index(a):clusters.index(b) + 1] = [merged]
            elif kind == "refine":
                if not macro:
                    continue
                target = data.draw(st.sampled_from(macro))
                ref.forget(target)
                clusters[clusters.index(target)] = Cluster(
                    id=target.id, chain_id=target.chain_id, start=target.start,
                    end=target.end)
            else:
                if not micro:
                    continue
                target = data.draw(st.sampled_from(micro))
                clusters[clusters.index(target)] = fresh_macro(
                    target.id, target.chain_id, target.start, target.end,
                    data.draw(st.sampled_from([40.0, 60.0, 100.0, 125.0])))

            for cluster in clusters:
                if cluster.representation == MACRO:
                    assert np.array_equal(jammed(cluster, policy),
                                          ref.detect_jam(cluster)), (kind, cluster.id)
                    assert_cells_tile(cluster)


def per_cluster_jam_actions(ctl, ref, clusters, step):
    """The jam pass as it was before it read the store: the flags (here the
    dict reference's) and `_jam_region` of every macro cluster not in
    cooldown, in (chain, start) order."""
    actions = []
    for cluster in sorted(clusters, key=lambda c: (c.chain_id, c.start)):
        if cluster.representation != MACRO or ctl.in_cooldown(cluster, step):
            continue
        flags = ref.detect_jam(cluster)
        if not flags.any():
            continue
        start, end = ctl._jam_region(cluster, flags)
        if start - cluster.start > 1e-9:
            actions.append(Action("split", cluster.chain_id, start, "jam"))
        if cluster.end - end > 1e-9:
            actions.append(Action("split", cluster.chain_id, end, "jam"))
        actions.append(Action("refine", cluster.chain_id, (start + end) / 2.0, "jam"))
    return actions


class TestPlanMatchesPerClusterLoop:
    """Counters drawn by observing one drawn partition several times, and
    cooldowns drawn per cluster: the jam pass over the hot store segments
    plans exactly what the per-cluster loop plans."""

    @staticmethod
    def draw_partition(data, ids):
        """Each oracle chain cut at multiples of 50 m into macro clusters of
        50 or 100 m cells and micro clusters."""
        clusters = []
        for chain in ORACLE_CHAINS.values():
            cuts = sorted(data.draw(st.sets(st.integers(1, int(chain.length) // 50 - 1),
                                            max_size=4)))
            edges = [0.0] + [50.0 * c for c in cuts] + [chain.length]
            for start, end in zip(edges, edges[1:]):
                if data.draw(st.booleans()):
                    clusters.append(fresh_macro(next(ids), chain.id, start, end,
                                                data.draw(st.sampled_from([50.0, 100.0]))))
                else:
                    clusters.append(Cluster(id=next(ids), chain_id=chain.id,
                                            start=start, end=end))
        return clusters

    @given(st.data())
    def test_jam_actions_equal_reference(self, data):
        policy = LodPolicy(persistence=3, cooldown=4, min_cluster_length=data.draw(
            st.sampled_from([0.0, 200.0])))
        ctl, ref = LodController(policy), DictCounters(policy)
        ids = iter(f"k{i}" for i in range(10_000))
        clusters = self.draw_partition(data, ids)
        macro = [c for c in clusters if c.representation == MACRO]
        store = None
        for step in range(data.draw(st.integers(1, 8))):
            cell_ratios = {c.id: np.array(data.draw(st.lists(
                st.sampled_from([0.1, 1.0]), min_size=len(c.segment),
                max_size=len(c.segment)))) for c in macro}
            store = observe(ctl, clusters, {c.id: 1.0 for c in clusters},
                            cell_ratios, step, store)
            ref.observe(clusters, cell_ratios)
        step += 1
        for cluster in macro:
            if data.draw(st.booleans()):
                ctl.mark_switch(cluster, step - data.draw(st.integers(0, 8)), False)
        planned = ctl.plan(clusters, store, [], step, 0, lambda action: "refused")
        assert planned == per_cluster_jam_actions(ctl, ref, clusters, step)
        # the plan does not depend on the order the clusters come in
        shuffled = data.draw(st.permutations(clusters))
        assert ctl.plan(shuffled, store, [], step, 0, lambda action: "refused") == planned


class TestSplit:
    def test_split_empty_macro(self):
        cluster = macro_cluster()
        left, right = split_cluster(cluster, 500.0, CHAIN)
        assert (left.start, left.end) == (0.0, 500.0)
        assert (right.start, right.end) == (500.0, 1000.0)
        assert len(left.segment) == 5 and len(right.segment) == 5
        assert left.mass() + right.mass() == 0.0

    def test_split_micro_partitions_vehicles(self):
        positions = [50, 150, 250, 350, 550, 650, 750, 850, 900, 950]
        cluster = micro_cluster_with("c", 0.0, 1000.0, positions)
        left, right = split_cluster(cluster, 400.0, CHAIN)
        assert len(left.vehicles) == 4
        assert len(right.vehicles) == 6

    def test_mass_preserved(self):
        cluster = macro_cluster(rho=0.07)
        before = cluster.mass()
        left, right = split_cluster(cluster, 300.0, CHAIN)
        assert left.mass() + right.mass() == pytest.approx(before, abs=1e-12)


class TestMerge:
    def shared(self, up="a", down="b", position=500.0, lanes=1):
        return BoundaryInterface(id="i", chain_id="chain0", position=position,
                                 upstream_id=up, downstream_id=down, lanes=lanes)

    def test_split_then_merge_macro_is_identity(self):
        cluster = macro_cluster(rho=0.06)
        left, right = split_cluster(cluster, 500.0, CHAIN)
        merged, fraction = merge_clusters(
            left, right, self.shared(left.id, right.id), lambda: "m2")
        assert merged.mass() == pytest.approx(cluster.mass(), abs=1e-12)
        assert np.allclose(merged.segment.rho, cluster.segment.rho)
        assert fraction == 0.0

    def test_merge_micro_union_ordered(self):
        a = micro_cluster_with("a", 0.0, 500.0, [100, 200])
        b = micro_cluster_with("b", 500.0, 1000.0, [600, 700])
        merged, fraction = merge_clusters(a, b, self.shared("a", "b"), lambda: "m")
        assert len(merged.vehicles) == 4
        ordered = sorted(merged.vehicles.values(), key=lambda v: v.position)
        assert [v.position for v in ordered] == [100, 200, 600, 700]

    def test_micro_merge_returns_no_leftover(self):
        """An interface behind a micro cluster holds nothing to hand on."""
        a = micro_cluster_with("a", 0.0, 500.0, [100])
        b = micro_cluster_with("b", 500.0, 1000.0, [600])
        merged, fraction = merge_clusters(a, b, self.shared("a", "b"), lambda: "m1")
        assert merged.id == "m1" and sorted(merged.vehicles) == ["a_v0", "b_v0"]
        assert fraction == 0.0

    def test_macro_merge_folds_interface_mass_into_boundary_cell(self):
        a = macro_cluster("a", 0.0, 500.0, rho=0.02)
        b = macro_cluster("b", 500.0, 1000.0, rho=0.02)
        shared = self.shared("a", "b")
        shared.carryover[:] = [0.75]
        shared.pending.append(Vehicle(id="q", road="r", lane=0,
                                      position=500.0, speed=0.0))
        before = a.mass() + b.mass() + shared.mass()
        merged, fraction = merge_clusters(a, b, shared, lambda: "m")
        assert merged.mass() + fraction == pytest.approx(before, abs=1e-12)


class TestMemoryFollowsTheCluster:
    """Split and merge hand the LOD memory to the clusters they make, which
    count recovery afresh."""

    def shared(self):
        return BoundaryInterface(id="i", chain_id="chain0", position=500.0,
                                 upstream_id="a", downstream_id="b", lanes=1)

    def test_both_children_take_the_parents_memory(self):
        ctl = LodController(POLICY)
        parent = micro_cluster_with("p", 0.0, 1000.0, [100, 600])
        ctl.mark_switch(parent, step=40, refined=True)
        parent.last_jam_step = 37
        parent.recovered_steps = 5
        for child in split_cluster(parent, 500.0, CHAIN):
            assert child.cooldown_until == 40 + POLICY.cooldown
            assert child.last_jam_step == 37
            assert child.refined
            assert child.recovered_steps == 0

    def test_merge_takes_the_later_jam_and_cooldown(self):
        ctl = LodController(POLICY)
        a = micro_cluster_with("a", 0.0, 500.0, [100])
        b = micro_cluster_with("b", 500.0, 1000.0, [600])
        ctl.mark_switch(a, step=40, refined=False)
        ctl.mark_switch(b, step=10, refined=True)
        a.last_jam_step, b.last_jam_step = 12, 37
        a.recovered_steps = b.recovered_steps = 5
        merged, _ = merge_clusters(a, b, self.shared(), lambda: "m")
        assert merged.cooldown_until == 40 + POLICY.cooldown
        assert merged.last_jam_step == 37
        assert merged.refined
        assert merged.recovered_steps == 0

    def test_merge_of_untouched_clusters_keeps_the_defaults(self):
        a = macro_cluster("a", 0.0, 500.0)
        b = macro_cluster("b", 500.0, 1000.0)
        merged, _ = merge_clusters(a, b, self.shared(), lambda: "m")
        assert (merged.recovered_steps, merged.last_jam_step, merged.cooldown_until,
                merged.refined) == (0, -1, -1, False)


class DictMemory:
    """Reference for the per-cluster LOD memory: four tables keyed by
    cluster id, kept up to date by a hook for each switch, split and merge."""

    def __init__(self, policy):
        self.policy = policy
        self.cluster_high: dict[str, int] = {}
        self.last_jam_step: dict[str, int] = {}
        self.cooldown_until: dict[str, int] = {}
        self.refined_at: dict[str, int] = {}

    def observe(self, clusters, ratios, step):
        for cluster in clusters:
            ratio = ratios[cluster.id]
            if ratio > self.policy.theta_up:
                self.cluster_high[cluster.id] = self.cluster_high.get(cluster.id, 0) + 1
            else:
                self.cluster_high[cluster.id] = 0
            if ratio < self.policy.theta_down:
                self.last_jam_step[cluster.id] = step

    def mark_switch(self, cluster_id, step, refined):
        self.cooldown_until[cluster_id] = step + self.policy.cooldown
        if refined:
            self.refined_at[cluster_id] = step
        else:
            self.refined_at.pop(cluster_id, None)
        self.cluster_high.pop(cluster_id, None)

    def inherit_split(self, parent, children):
        until = self.cooldown_until.pop(parent, None)
        jam = self.last_jam_step.pop(parent, None)
        refined = self.refined_at.pop(parent, None)
        self.cluster_high.pop(parent, None)
        for child in children:
            if until is not None:
                self.cooldown_until[child] = until
            if jam is not None:
                self.last_jam_step[child] = jam
            if refined is not None:
                self.refined_at[child] = refined

    def inherit_merge(self, parents, child):
        untils = [self.cooldown_until.pop(p, None) for p in parents]
        jams = [self.last_jam_step.pop(p, None) for p in parents]
        refined = [self.refined_at.pop(p, None) for p in parents]
        for p in parents:
            self.cluster_high.pop(p, None)
        if any(u is not None for u in untils):
            self.cooldown_until[child] = max(u for u in untils if u is not None)
        if any(j is not None for j in jams):
            self.last_jam_step[child] = max(j for j in jams if j is not None)
        if any(r is not None for r in refined):
            self.refined_at[child] = max(r for r in refined if r is not None)

    def fields(self, cluster_id):
        """The reference's entries in the order of the cluster's fields."""
        return (self.cluster_high.get(cluster_id, 0), self.last_jam_step.get(cluster_id, -1),
                self.cooldown_until.get(cluster_id, -1), cluster_id in self.refined_at)


class TestMemoryMatchesDictReference:
    """Random observations, switches, splits and merges on an open and a
    cyclic chain: after every operation each cluster's LOD memory equals the
    id-keyed reference's entries for its id."""

    @given(st.data())
    def test_fields_equal_reference(self, data):
        policy = LodPolicy(persistence=3, cooldown=4)
        ctl, ref = LodController(policy), DictMemory(policy)
        ids = iter(f"k{i}" for i in range(10_000))
        store = None
        step = 0
        clusters = [fresh_macro(next(ids), chain.id, 0.0, chain.length, 100.0)
                    for chain in ORACLE_CHAINS.values()]
        ratio = st.sampled_from([0.1, policy.theta_down, 0.7, policy.theta_up, 1.0])

        for _ in range(data.draw(st.integers(1, 40))):
            kind = data.draw(st.sampled_from(["observe", "observe", "switch", "split",
                                              "merge"]))
            if kind == "observe":
                ratios = {c.id: data.draw(ratio) for c in clusters}
                cells = {c.id: np.full(len(c.segment), ratios[c.id]) for c in clusters
                         if c.representation == MACRO}
                step += data.draw(st.integers(1, 3))
                store = observe(ctl, clusters, ratios, cells, step, store)
                ref.observe(clusters, ratios, step)
            elif kind == "switch":
                # in place, as the engine refines and coarsens
                target = data.draw(st.sampled_from(clusters))
                refined = target.representation == MACRO
                if refined:
                    target.segment = None
                else:
                    target.segment = fresh_macro(target.id, target.chain_id, target.start,
                                                 target.end, 100.0).segment
                ctl.mark_switch(target, step, refined)
                ref.mark_switch(target.id, step, refined)
            elif kind == "split":
                target = data.draw(st.sampled_from(clusters))
                if target.representation == MACRO:
                    if len(target.segment) < 2:
                        continue
                    at = float(target.segment.start[data.draw(
                        st.integers(1, len(target.segment) - 1))])
                else:
                    at = target.start + 0.5 * target.length
                left, right = split_cluster(target, at, ORACLE_CHAINS[target.chain_id])
                left.id, right.id = next(ids), next(ids)
                clusters[clusters.index(target):clusters.index(target) + 1] = [left, right]
                ref.inherit_split(target.id, (left.id, right.id))
            else:
                pairs = [(a, b) for a, b in zip(clusters, clusters[1:])
                         if a.chain_id == b.chain_id and a.end == b.start
                         and a.representation == b.representation]
                if not pairs:
                    continue
                a, b = data.draw(st.sampled_from(pairs))
                shared = BoundaryInterface(id="i", chain_id=a.chain_id, position=b.start,
                                           upstream_id=a.id, downstream_id=b.id, lanes=1)
                merged, _ = merge_clusters(a, b, shared, lambda: next(ids))
                clusters[clusters.index(a):clusters.index(b) + 1] = [merged]
                ref.inherit_merge((a.id, b.id), merged.id)

            for cluster in clusters:
                assert (cluster.recovered_steps, cluster.last_jam_step,
                        cluster.cooldown_until, cluster.refined) \
                    == ref.fields(cluster.id), (kind, cluster.id)


class TestPlan:
    def plan(self, ctl, clusters, interfaces=(), step=100, micro_count=0,
             refused=lambda action: None):
        return ctl.plan(clusters, engine_store(clusters), list(interfaces), step,
                        micro_count, refused)

    def test_steady_free_flow_is_empty_plan(self):
        ctl = LodController(POLICY)
        cluster = macro_cluster(rho=0.01)
        observe_n(ctl, [cluster], {cluster.id: 1.0},
                  {cluster.id: np.ones(10)}, 30)
        assert self.plan(ctl, [cluster]) == []

    def test_jammed_cell_yields_split_and_refine(self):
        ctl = LodController(POLICY)
        cluster = macro_cluster(rho=0.01)
        ratios = np.ones(10)
        ratios[5] = 0.1   # cell [500, 600) jammed
        observe_n(ctl, [cluster], {cluster.id: 0.9},
                  {cluster.id: ratios}, POLICY.persistence)
        actions = self.plan(ctl, [cluster], step=POLICY.persistence)
        kinds = [a.kind for a in actions]
        assert kinds == ["split", "split", "refine"]
        # flagged cell padded by one on each side
        assert actions[0].position == pytest.approx(400.0)
        assert actions[1].position == pytest.approx(700.0)
        assert all(a.trigger == "jam" for a in actions)

    def test_cooldown_suppresses_refine(self):
        ctl = LodController(POLICY)
        cluster = macro_cluster(rho=0.01)
        ratios = np.full(10, 0.1)
        ctl.mark_switch(cluster, step=0, refined=False)
        observe_n(ctl, [cluster], {cluster.id: 0.1},
                  {cluster.id: ratios}, POLICY.persistence)
        assert self.plan(ctl, [cluster], step=POLICY.persistence) == []
        late = self.plan(ctl, [cluster], step=POLICY.cooldown + 1)
        assert late and late[-1].kind == "refine"

    def test_budget_zero_coarsens_all_micro(self):
        policy = LodPolicy(micro_vehicle_budget=0)
        ctl = LodController(policy)
        a = micro_cluster_with("a", 0.0, 500.0, [100, 200])
        b = micro_cluster_with("b", 500.0, 1000.0, [600])
        observe_n(ctl, [a, b], {"a": 1.0, "b": 1.0}, {}, 3)
        actions = self.plan(ctl, [a, b], step=3, micro_count=3)
        assert [a.kind for a in actions] == ["coarsen", "coarsen"]
        assert all(a.trigger == "budget" for a in actions)

    def test_budget_respects_capability_and_cooldown(self):
        policy = LodPolicy(micro_vehicle_budget=0)
        ctl = LodController(policy)
        a = micro_cluster_with("a", 0.0, 500.0, [100])
        ctl.mark_switch(a, step=0, refined=True)
        actions = self.plan(ctl, [a], step=3, micro_count=1)
        assert actions == []   # still cooling down

    def test_recovery_coarsens_refined_cluster_once(self):
        ctl = LodController(POLICY)
        a = micro_cluster_with("a", 0.0, 500.0, [100])
        ctl.mark_switch(a, step=0, refined=True)
        start = POLICY.cooldown + 1
        observe_n(ctl, [a], {"a": 1.0}, {}, POLICY.persistence, start=start)
        actions = self.plan(ctl, [a], step=start + POLICY.persistence)
        assert [x.kind for x in actions] == ["coarsen"]
        assert actions[0].trigger == "recovery"

    def test_recovery_asks_capability_only_of_recovered_clusters(self):
        ctl = LodController(POLICY)
        a = micro_cluster_with("a", 0.0, 500.0, [100])
        ctl.mark_switch(a, step=0, refined=True)
        start = POLICY.cooldown + 1
        observe_n(ctl, [a], {"a": 0.3}, {}, POLICY.persistence, start=start)
        asked = []
        actions = self.plan(ctl, [a], step=start + POLICY.persistence,
                            refused=asked.append)
        assert actions == [] and asked == []

    def test_recovered_neighbors_merge(self):
        ctl = LodController(POLICY)
        a = macro_cluster("a", 0.0, 500.0, rho=0.005)
        b = macro_cluster("b", 500.0, 1000.0, rho=0.005)
        itf = BoundaryInterface(id="i", chain_id="chain0", position=500.0,
                                upstream_id="a", downstream_id="b", lanes=1)
        ratios = {"a": 1.0, "b": 1.0}
        cells = {"a": np.ones(5), "b": np.ones(5)}
        observe_n(ctl, [a, b], ratios, cells, POLICY.persistence)
        actions = self.plan(ctl, [a, b], [itf], step=POLICY.persistence)
        assert [x.kind for x in actions] == ["merge"]
        assert actions[0].position == pytest.approx(500.0)

    def test_micro_neighbors_merge_once_their_queue_is_empty(self):
        ctl = LodController(POLICY)
        a = micro_cluster_with("a", 0.0, 500.0, [100])
        b = micro_cluster_with("b", 500.0, 1000.0, [600])
        itf = BoundaryInterface(id="i", chain_id="chain0", position=500.0,
                                upstream_id="a", downstream_id="b", lanes=1)
        itf.pending.append(Vehicle(id="q", road="r", lane=0, position=500.0, speed=5.0))
        observe_n(ctl, [a, b], {"a": 1.0, "b": 1.0}, {}, POLICY.persistence)

        def queued(action):
            # a stand-in refusal: the planner proposes only the merges it lets pass
            return "vehicles queued" if itf.pending else None
        assert self.plan(ctl, [a, b], [itf], step=POLICY.persistence, refused=queued) == []
        itf.pending.clear()
        actions = self.plan(ctl, [a, b], [itf], step=POLICY.persistence, refused=queued)
        assert [(x.kind, x.position) for x in actions] == [("merge", 500.0)]

    def test_plan_is_deterministic(self):
        def build():
            ctl = LodController(POLICY)
            cluster = macro_cluster(rho=0.01)
            ratios = np.ones(10)
            ratios[3] = 0.1
            observe_n(ctl, [cluster], {cluster.id: 0.9},
                      {cluster.id: ratios}, POLICY.persistence)
            return self.plan(ctl, [cluster], step=POLICY.persistence)
        assert build() == build()
