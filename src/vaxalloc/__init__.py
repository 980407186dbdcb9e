"""Mobility-coupled metapopulation SIRD simulator with online vaccine
allocation policies and a budget-balanced sharing mechanism."""

from .epi import CompartmentState, EpidemicInstabilityError, EpiParams, step, step_vaccinated
from .harness import GainReport, RunResult, export, gains, import_result, replicate, run
from .net import (AirFlowTable, AirportRecord, Airports, FlowMatrix, NodeRecord,
                  Nodes, build_network, synth_world)
from .policy import PolicyState, solve_knapsack
from .scenario import Instance, ScenarioConfig, build_instance
from .sharing import SharingPlan, plan_sharing, redistribute

__version__ = "0.1.0"

__all__ = [
    "AirFlowTable", "AirportRecord", "Airports", "CompartmentState", "EpiParams",
    "EpidemicInstabilityError", "FlowMatrix",
    "GainReport", "Instance", "NodeRecord", "Nodes", "PolicyState", "RunResult",
    "ScenarioConfig", "SharingPlan", "build_instance",
    "build_network", "export", "gains", "import_result", "plan_sharing",
    "redistribute", "replicate", "run", "solve_knapsack", "step",
    "step_vaccinated", "synth_world",
]
