"""Scalar perception, one vehicle at a time: the reference that the engine's
batch `Scene.perceive` must equal float for float.

Each function takes the step's `Scene` and reads it through the scene's own
scalar queries (`_leader_on`, `_follower_on`, `_leader_beyond`,
`slot_occupied`, `gate_ahead`, `speed_cap`), which insertion, lane changes
and the walk also use."""

from hybridflow.engine import INF, MIN_PERCEIVED_GAP, PERCEPTION_HORIZON
from hybridflow.micro import AdjacentView, BehaviorContext, Perception


def sign_obstacle(scene, veh, lane):
    """Distance to the nearest unserved stop sign ahead on this road."""
    best = None
    for sign in scene.state.network.roads[veh.road].signs:
        if sign.kind != "stop" or not sign.applies_to(lane):
            continue
        if sign.position <= veh.position + 1e-9:
            continue
        if (veh.road, sign.position) in veh.satisfied_stops:
            continue
        d = sign.position - veh.position
        best = d if best is None else min(best, d)
    return best


def lane_view(scene, veh, lane):
    """Leader/follower views in one lane of the vehicle's road."""
    chain = scene.state.chain_of_road[veh.road]
    cpos = chain.to_chain_pos(veh.road, veh.position)

    lead_gap, lead_dv = INF, 0.0
    found = scene._leader_on(veh.road, lane, veh.position, veh.id)
    if found is not None and found[0] <= PERCEPTION_HORIZON:
        dist, leader = found
        lead_gap = max(dist - leader.length, MIN_PERCEIVED_GAP)
        lead_dv = veh.speed - leader.speed
    else:
        found = scene._leader_beyond(veh, lane)
        if found is not None:
            lead_gap, lead_dv = found

    # a vehicle physically alongside blocks the lane outright
    if lane != veh.lane and scene.slot_occupied(veh.road, lane, veh.position,
                                                veh.length, veh.id):
        return AdjacentView(leader_gap=MIN_PERCEIVED_GAP, leader_dv=0.0,
                            follower_gap=MIN_PERCEIVED_GAP, follower_speed=veh.speed)

    # standing obstacles: unserved stop signs and closed gates
    sign_d = sign_obstacle(scene, veh, lane)
    if sign_d is not None and sign_d <= PERCEPTION_HORIZON and sign_d < lead_gap:
        lead_gap, lead_dv = sign_d, veh.speed
    gate = scene.gate_ahead(chain, cpos, PERCEPTION_HORIZON, closed_only=True)
    if gate is not None and gate[0] < lead_gap:
        lead_gap, lead_dv = gate[0], veh.speed

    fol_gap, fol_speed = INF, 0.0
    found = scene._follower_on(veh.road, lane, veh.position, veh.id)
    if found is not None and found[0] <= PERCEPTION_HORIZON:
        dist, follower = found
        fol_gap = dist - veh.length
        fol_speed = follower.speed
    return AdjacentView(leader_gap=lead_gap, leader_dv=lead_dv,
                        follower_gap=fol_gap, follower_speed=fol_speed)


def perceive(scene, veh):
    """(Perception, BehaviorContext) of one vehicle, as `behavior_chain`
    takes them."""
    state = scene.state
    road = state.network.roads[veh.road]
    own = lane_view(scene, veh, veh.lane)
    left = lane_view(scene, veh, veh.lane - 1) if veh.lane > 0 else None
    right = lane_view(scene, veh, veh.lane + 1) \
        if veh.lane < road.lane_count - 1 else None
    perception = Perception(
        leader_gap=own.leader_gap, leader_dv=own.leader_dv,
        speed_limit=scene.speed_cap(veh.road, veh.lane, veh.position),
        left=left, right=right,
        follower_gap=own.follower_gap, follower_speed=own.follower_speed)
    ctx = BehaviorContext(lane_count=road.lane_count,
                          permitted_lanes=state.permitted_lanes(veh.road, veh.route),
                          distance_to_node=road.length - veh.position)
    return perception, ctx
