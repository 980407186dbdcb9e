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
class InfectionSplit:
    internal: np.ndarray  # per-node, same-agent infection pressure
    external: np.ndarray  # per-node, cross-agent infection pressure


@dataclass
class SharingPlan:
    ratios: np.ndarray            # per-agent offered fraction of budget
    infected_flows: np.ndarray    # [k', k]: infected flow from agent k' into k
    budgets_out: np.ndarray       # per-agent effective budgets


@dataclass
class AgentCoupling:
    """The rate matrix's entries split once into same-agent and cross-agent
    (row, col, data) arrays, in CSR order, for a fixed node partition.

    The per-period sharing quantities are gathers over these arrays plus
    ``np.bincount``, which adds in input order as ``np.add.at`` does, so they
    match a per-period COO rebuild bit for bit.
    """

    n: int
    n_agents: int
    agent_of: np.ndarray
    rho: float
    same_row: np.ndarray
    same_col: np.ndarray
    same_data: np.ndarray
    cross_row: np.ndarray
    cross_col: np.ndarray
    cross_data: np.ndarray
    cross_rho_data: np.ndarray  # rho * cross_data
    cross_key: np.ndarray       # agent_of[col] * n_agents + agent_of[row]


def agent_coupling(net: FlowMatrix, agent_of: np.ndarray,
                   n_agents: int) -> AgentCoupling:
    """Build the static coupling of ``net`` under the partition ``agent_of``."""
    agent_of = np.asarray(agent_of, dtype=int)
    coo = net.rates.tocoo()
    row, col = coo.row.astype(np.intp), coo.col.astype(np.intp)
    same = agent_of[row] == agent_of[col]
    cross = ~same
    cross_data = coo.data[cross]
    cross_row, cross_col = row[cross], col[cross]
    return AgentCoupling(
        n=net.n, n_agents=n_agents, agent_of=agent_of, rho=net.rho,
        same_row=row[same], same_col=col[same], same_data=coo.data[same],
        cross_row=cross_row, cross_col=cross_col, cross_data=cross_data,
        cross_rho_data=net.rho * cross_data,
        cross_key=agent_of[cross_col] * n_agents + agent_of[cross_row])


def infection_split(state: CompartmentState, params: EpiParams,
                    coupling: AgentCoupling) -> InfectionSplit:
    """Split each node's next-period infection pressure into same-agent and
    cross-agent mobility sources."""
    c = coupling
    inf = state.i
    mob_same = np.bincount(c.same_row, weights=c.same_data * inf[c.same_col],
                           minlength=c.n)
    mob_cross = np.bincount(c.cross_row, weights=c.cross_data * inf[c.cross_col],
                            minlength=c.n)
    internal = inf + params.beta * state.s * inf - params.gamma * inf + c.rho * mob_same
    external = c.rho * mob_cross
    return InfectionSplit(internal=internal, external=external)


def sharing_ratios(split: InfectionSplit, agent_of: np.ndarray,
                   n_agents: int) -> np.ndarray:
    """Per-agent external / (internal + external) infection ratio; defined
    as 0 when an agent has no infections at all."""
    agent_of = np.asarray(agent_of, dtype=int)
    internal = np.bincount(agent_of, weights=split.internal, minlength=n_agents)
    external = np.bincount(agent_of, weights=split.external, minlength=n_agents)
    total = internal + external
    return np.where(total > 0, external / np.where(total > 0, total, 1.0), 0.0)


def infected_flow_matrix(state: CompartmentState,
                         coupling: AgentCoupling) -> np.ndarray:
    """M[k', k] = rho * sum over i in V_k, j in N_i with owner k' of
    p_ij * I_j; the diagonal is zero, as only cross-agent entries add."""
    c = coupling
    k = c.n_agents
    flat = np.bincount(c.cross_key, weights=c.cross_rho_data * state.i[c.cross_col],
                       minlength=k * k)
    return flat.reshape(k, k)


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


def plan_sharing(state: CompartmentState, params: EpiParams,
                 coupling: AgentCoupling, budgets: np.ndarray,
                 capacities: np.ndarray) -> SharingPlan:
    """Full sharing computation for one period from a state snapshot."""
    split = infection_split(state, params, coupling)
    ratios = sharing_ratios(split, coupling.agent_of, coupling.n_agents)
    flows = infected_flow_matrix(state, coupling)
    budgets_out = redistribute(budgets, ratios, flows, capacities)
    return SharingPlan(ratios=ratios, infected_flows=flows, budgets_out=budgets_out)
