"""Discrete-time metapopulation SIRD stepping, with and without vaccination.

All compartments are per-node proportions; the dead compartment is the
residual so per-node closure holds by construction. Updates are simultaneous:
every t+1 value is computed from the full t snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .net import FlowMatrix

STABILITY_BAND = 1e-9


class EpidemicInstabilityError(RuntimeError):
    """A compartment proportion left [0, 1] beyond the tolerance band or
    stopped being finite."""

    def __init__(self, period: int, node: int, value: float):
        super().__init__(
            f"compartment proportion {value!r} out of range at period {period}, node {node}")
        self.period = period
        self.node = node
        self.value = value


@dataclass
class EpiParams:
    beta: np.ndarray
    gamma: np.ndarray
    cfr: np.ndarray  # case fatality fraction of recoveries

    def __post_init__(self):
        self.beta, self.gamma, self.cfr = (np.asarray(v, dtype=float)
                                           for v in (self.beta, self.gamma, self.cfr))
        if np.any(self.beta < 0):
            raise ValueError("transmission rates must be nonnegative")
        if np.any((self.gamma < 0) | (self.gamma > 1)):
            raise ValueError("recovery rates must be in [0, 1]")
        if np.any((self.cfr < 0) | (self.cfr > 1)):
            raise ValueError("case fatality rates must be in [0, 1]")


@dataclass
class CompartmentState:
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    d: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.s, self.i, self.r, self.d = (np.asarray(v, dtype=float)
                                          for v in (self.s, self.i, self.r, self.d))


def step(state: CompartmentState, params: EpiParams, net: FlowMatrix) -> CompartmentState:
    """One unvaccinated period: the zero-allocation case of the vaccinated
    update, so the two stay bit-identical by construction."""
    zeros = np.zeros_like(state.s)
    return step_vaccinated(state, params, net, zeros, zeros)


def step_vaccinated(state: CompartmentState, params: EpiParams, net: FlowMatrix,
                    x: np.ndarray, theta_obs: np.ndarray) -> CompartmentState:
    """One period with vaccination fractions x and realized efficiencies."""
    x = np.asarray(x, dtype=float)
    theta_obs = np.asarray(theta_obs, dtype=float)
    # NaN fails every comparison, and min and max return it
    if not (x.min() >= 0 and x.max() <= 1):
        raise ValueError("allocation fractions must be in [0, 1]")
    active = np.where(x > 0, theta_obs, 0.0)
    if not (active.min() >= 0 and active.max() <= 1):
        raise ValueError("realized efficiency must be in [0, 1] where allocated")

    s, i, r = state.s, state.i, state.r
    rs = net.rate_row_sum
    rho = net.rho
    vx = theta_obs * x
    keep = 1.0 - vx

    new_inf = params.beta * s * i
    sv = s * keep
    rv = r + s * vx

    # the three mobility terms rates @ (sv, i, rv) as one product, over
    # columns that lie contiguous in memory
    p_sv, p_i, p_rv = net.rates_dot(np.array((sv, i, rv)).T).T

    # the four compartments as rows of one array, so that one check and one
    # clip cover them
    comps = np.empty((4, s.shape[0]))
    s1, i1, r1, d1 = comps
    comps[0] = (s - new_inf) * keep + rho * (p_sv - rs * sv)
    comps[1] = i + new_inf * keep - params.gamma * i + rho * (p_i - rs * i)
    comps[2] = rv + (1.0 - params.cfr) * params.gamma * i + rho * (p_rv - rs * rv)
    np.subtract(1.0 - s1 - i1, r1, out=d1)

    t1 = state.t + 1
    if not (comps.min() >= -STABILITY_BAND and comps.max() <= 1.0 + STABILITY_BAND):
        bad = ~((comps >= -STABILITY_BAND) & (comps <= 1.0 + STABILITY_BAND))
        comp, node = np.argwhere(bad)[0]  # the first in s, i, r, d order
        raise EpidemicInstabilityError(t1, int(node), float(comps[comp, node]))
    np.clip(comps[:3], 0.0, 1.0, out=comps[:3])
    np.subtract(1.0 - s1 - i1, r1, out=d1)
    neg = d1 < 0.0
    if np.any(neg):
        # residual deficit within the band: rescale the live compartments
        scale = 1.0 / (s1[neg] + i1[neg] + r1[neg])
        s1[neg] *= scale
        i1[neg] *= scale
        r1[neg] *= scale
        d1[neg] = 1.0 - s1[neg] - i1[neg] - r1[neg]
    return CompartmentState(s=s1, i=i1, r=r1, d=d1, t=t1)
