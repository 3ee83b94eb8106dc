"""Hybrid micro/macro road-traffic simulation with runtime level of detail.

A road network is partitioned into clusters simulated either vehicle by
vehicle (car following plus lane changing) or as a kinematic-wave flow on
cells.  Clusters switch representation at runtime, driven by jam detection
and a compute budget, on top of an influence-reaction engine observed
through probes.
"""

from .engine import (EngineConfig, EngineState, Probe, RunReport,
                     SimulationEngine, advance_step, apply_system_influences,
                     build_state, notify_probes)
from .generation import (Distribution, FlowMassGenerator, FlowProfile,
                         ScriptedGenerator, VehicleMix)
from .hybrid import (BoundaryInterface, Cluster, aggregate_cluster,
                     disaggregate_cluster, total_mass)
from .lod import Action, LodController, LodPolicy
from .macro import (CflViolation, FundamentalDiagram, MacroCell, MacroSegment,
                    cell_mean_speed, ctm_step, fd_flow)
from .micro import DriverParams, Perception, Vehicle, behavior_chain, equilibrium_gap
from .network import (Chain, Node, Road, RoadNetwork, Route, VerticalSign,
                      compute_route, derive_chains, lanes_toward,
                      validate_network)
from .scenario import (ScenarioError, ScenarioModel, parse_scenario,
                       serialize_scenario, write_scenario)

__version__ = "0.1.0"
