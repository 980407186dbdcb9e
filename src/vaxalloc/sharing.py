"""Budget-balanced resource sharing among agents.

Each agent offers a slice of its budget equal to its external infection
ratio; offers are split among the agents whose infected populations flow
into the offering agent, weighted inversely by the receiving agent's
vaccination capacity. Transfers always sum to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .epi import CompartmentState, EpiParams
from .net import FlowMatrix


@dataclass
class SharingPlan:
    ratios: np.ndarray            # per-agent offered fraction of budget
    infected_flows: np.ndarray    # [k', k]: infected flow from agent k' into k
    budgets_out: np.ndarray       # per-agent effective budgets


def agent_inflows(state: CompartmentState, net: FlowMatrix, agent_of: np.ndarray,
                  n_agents: int) -> np.ndarray:
    """Y = rates @ [Z * I, (1 - Z) * I], Z the n x K agent membership mask:
    Y[i, k] sums p_ij I_j over j in V_k, and Y[i, K + k] over j outside V_k."""
    own = np.asarray(agent_of)[:, None] == np.arange(n_agents)
    return net.rates_dot(state.i[:, None] * np.hstack((own, ~own)))


def infection_split(state: CompartmentState, params: EpiParams, net: FlowMatrix,
                    agent_of: np.ndarray,
                    inflows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's next-period infection pressure from its own agent
    (internal) and from other agents (external), read from ``agent_inflows``."""
    k = inflows.shape[1] // 2
    rows = np.arange(net.n)
    inf = state.i
    internal = (inf + params.beta * state.s * inf - params.gamma * inf
                + net.rho * inflows[rows, agent_of])
    external = net.rho * inflows[rows, k + agent_of]
    return internal, external


def sharing_ratios(internal: np.ndarray, external: np.ndarray, agent_of: np.ndarray,
                   n_agents: int) -> np.ndarray:
    """Per-agent external / (internal + external) infection ratio from the
    per-node split; defined as 0 when an agent has no infections at all."""
    agent_of = np.asarray(agent_of, dtype=int)
    internal = np.bincount(agent_of, weights=internal, minlength=n_agents)
    external = np.bincount(agent_of, weights=external, minlength=n_agents)
    total = internal + external
    return np.where(total > 0, external / np.where(total > 0, total, 1.0), 0.0)


def infected_flow_matrix(net: FlowMatrix, agent_of: np.ndarray,
                         inflows: np.ndarray) -> np.ndarray:
    """M[k', k] = rho * sum over i in V_k, j in N_i with owner k' of
    p_ij * I_j, from the per-agent column sums of ``agent_inflows``; those
    include same-agent flow, so the diagonal is set to zero explicitly."""
    k = inflows.shape[1] // 2
    # into[k, k']: agent k' infections reaching V_k; bincount adds in node
    # order, as np.add.at does, so the sums are the same
    into = np.stack([np.bincount(agent_of, weights=col, minlength=k)
                     for col in inflows[:, :k].T], axis=1)
    mat = net.rho * into.T
    np.fill_diagonal(mat, 0.0)
    return mat


def redistribute(budgets: np.ndarray, ratios: np.ndarray,
                 infected_flows: np.ndarray, capacities: np.ndarray) -> np.ndarray:
    """Effective budgets after sharing.

    Agent k keeps (1 - R_k) B_k; the offered R_k B_k is split among agents
    k'' proportionally to infected_flows[k'', k] / capacity[k'']. An offer
    with no incoming infected flow anywhere is retained by its owner, which
    keeps the total exactly conserved in degenerate cases.
    """
    budgets = np.asarray(budgets, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    capacities = np.asarray(capacities, dtype=float)
    if np.any(capacities <= 0):
        raise ValueError("capacities must be positive")
    if np.any(budgets < 0):
        raise ValueError("budgets must be nonnegative")
    offered = budgets * ratios
    weights = infected_flows / capacities[:, None]  # [receiver, offerer]
    denom = weights.sum(axis=0)
    out = budgets * (1.0 - ratios)
    live = denom > 0
    if np.any(live):
        shares = weights[:, live] / denom[live]
        out += shares @ offered[live]
    out[~live] += offered[~live]
    return out


def plan_sharing(state: CompartmentState, params: EpiParams, net: FlowMatrix,
                 agent_of: np.ndarray, budgets: np.ndarray,
                 capacities: np.ndarray) -> SharingPlan:
    """Full sharing computation for one period from a state snapshot."""
    k = len(budgets)
    inflows = agent_inflows(state, net, agent_of, k)
    internal, external = infection_split(state, params, net, agent_of, inflows)
    ratios = sharing_ratios(internal, external, agent_of, k)
    flows = infected_flow_matrix(net, agent_of, inflows)
    budgets_out = redistribute(budgets, ratios, flows, capacities)
    return SharingPlan(ratios=ratios, infected_flows=flows, budgets_out=budgets_out)
