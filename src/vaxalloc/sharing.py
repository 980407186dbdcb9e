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
from .net import FlowMatrix, membership


@dataclass
class SharingPlan:
    ratios: np.ndarray            # per-agent offered fraction of budget
    infected_flows: np.ndarray    # [k', k]: infected flow from agent k' into k
    budgets_out: np.ndarray       # per-agent effective budgets


class AgentCoupling:
    """The static part of the sharing split, built once per run: ``c`` =
    rates.T @ Z for the n x K agent mask Z (c[j, k] sums p_ij over i in V_k,
    the rate at which node j's infections reach agent k's nodes), and
    ``members``, the agent membership Z^T (net.membership)."""

    def __init__(self, net: FlowMatrix, agent_of: np.ndarray, n_agents: int):
        agent_of = np.asarray(agent_of)
        with np.errstate(over="ignore", invalid="ignore"):  # refused below if not finite
            self.c = net.rates_t_dot(agent_of[:, None] == np.arange(n_agents))
        if (bad := np.flatnonzero(~np.isfinite(self.c).all(axis=1))).size:
            raise ValueError(f"agent coupling of node {bad[0]} is not finite: an outflow "
                             "is too close to 0 to divide by")
        self.members = membership(agent_of, n_agents)


def infected_flow_matrix(state: CompartmentState, net: FlowMatrix,
                         coupling: AgentCoupling) -> np.ndarray:
    """into[k', k] = rho * sum over j in V_k' of I_j c[j, k], added in node
    order: the infected flow from agent k' into agent k's nodes, the
    diagonal being each agent's flow into its own nodes."""
    return net.rho * (coupling.members @ (state.i[:, None] * coupling.c))


def infection_split(state: CompartmentState, params: EpiParams, agent_of: np.ndarray,
                    into: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each agent's next-period infection pressure from its own nodes (the
    local terms I + beta S I - gamma I and the diagonal of ``into``) and from
    other agents (the off-diagonal column sums of ``into``, added directly so
    that a cross-agent flow far below the internal one keeps its digits)."""
    k = into.shape[0]
    inf = state.i
    local = np.bincount(agent_of, weights=inf + params.beta * state.s * inf
                        - params.gamma * inf, minlength=k)
    return local + np.diag(into), into.sum(axis=0, where=~np.eye(k, dtype=bool))


def sharing_ratios(internal: np.ndarray, external: np.ndarray) -> np.ndarray:
    """Per-agent external / (internal + external) infection ratio; defined
    as 0 when an agent has no infections at all."""
    internal, external = (np.asarray(v, dtype=float) for v in (internal, external))
    total = internal + external
    return np.where(total > 0, external / np.where(total > 0, total, 1.0), 0.0)


def redistribute(budgets: np.ndarray, ratios: np.ndarray, infected_flows: np.ndarray,
                 capacities: np.ndarray) -> np.ndarray:
    """Effective budgets after sharing.

    Agent k keeps (1 - R_k) B_k; the offered R_k B_k is split among agents
    k'' proportionally to infected_flows[k'', k] / capacity[k'']. An offer
    with no incoming infected flow anywhere is retained by its owner, which
    keeps the total exactly conserved in degenerate cases.
    """
    budgets, ratios, capacities = (np.asarray(v, dtype=float)
                                   for v in (budgets, ratios, capacities))
    # written so that NaN fails each check
    if not np.all(capacities > 0):
        raise ValueError("capacities must be positive")
    if not np.all(budgets >= 0):
        raise ValueError("budgets must be nonnegative")
    offered = budgets * ratios
    with np.errstate(over="ignore"):  # refused below if not finite
        weights = infected_flows / capacities[:, None]  # [receiver, offerer]
    if (bad := np.argwhere(weights == np.inf)).size:
        raise ValueError(f"the infected flow into agent {bad[0][0]} over its capacity "
                         f"{float(capacities[bad[0][0]])!r} is past the float range")
    denom = weights.sum(axis=0)
    out = budgets * (1.0 - ratios)
    live = denom > 0
    if np.any(live):
        shares = weights[:, live] / denom[live]
        out += shares @ offered[live]
    out[~live] += offered[~live]
    return out


def plan_sharing(state: CompartmentState, params: EpiParams, net: FlowMatrix,
                 agent_of: np.ndarray, budgets: np.ndarray, capacities: np.ndarray,
                 coupling: AgentCoupling) -> SharingPlan:
    """Full sharing computation for one period from a state snapshot."""
    into = infected_flow_matrix(state, net, coupling)
    internal, external = infection_split(state, params, agent_of, into)
    ratios = sharing_ratios(internal, external)
    np.fill_diagonal(into, 0.0)  # only flows between agents are shared
    budgets_out = redistribute(budgets, ratios, into, capacities)
    return SharingPlan(ratios=ratios, infected_flows=into, budgets_out=budgets_out)
