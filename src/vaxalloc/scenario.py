"""Problem-instance generation: capacities, efficiency rates, budgets,
epidemic parameters and initial conditions, all derived deterministically
from a single config + seed."""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import net as netmod
from .epi import CompartmentState, EpiParams
from .net import FlowMatrix
from .policy import POLICIES

EFFICIENCY_LO = 0.5
EFFICIENCY_HI = 0.9

# stream codes under the master seed
_STREAM_WORLD = 0
_STREAM_CAPACITY = 1
_STREAM_EPI = 2
_STREAM_MEAN_RATES = 3
STREAM_TS = 10
STREAM_REALIZED = 11
STREAM_TRIALS = 12


def stream(seed: int, *path: int) -> np.random.Generator:
    """Counter-style deterministic substream of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, *path)))


@dataclass
class EfficiencyModel:
    mean_rates: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.mean_rates = np.asarray(self.mean_rates, dtype=float)
        if np.any((self.mean_rates < 0) | (self.mean_rates > 1)):
            raise ValueError("mean efficiency rates must be in [0, 1]")
        if not 0 <= self.epsilon <= 0.5:
            raise ValueError("uncertainty level must be in [0, 0.5]")


# name: smallest allowed value
_INT_FIELDS = {"n_nodes": 1, "n_agents": 1, "horizon": 1, "seed": 0}
# name: (low, high, low excluded)
_REAL_FIELDS = {
    "grid_spacing_km": (0.0, math.inf, True),
    "ground_range_km": (0.0, math.inf, True),
    "commute_fraction": (0.0, 1.0, False),
    "pop_median": (0.0, math.inf, True),
    "pop_sigma": (0.0, math.inf, False),
    "airport_density": (0.0, math.inf, False),
    "air_fraction": (0.0, math.inf, False),
    "case_fatality": (0.0, 1.0, False),
    "initial_infected": (0.0, 1.0, False),
    "capacity_median": (0.0, math.inf, True),
    "capacity_sigma": (0.0, math.inf, False),
    "epsilon": (0.0, 0.5, False),
    "budget_multiplier": (0.0, math.inf, True),
}
_RANGE_FIELDS = {
    "beta_range": (0.0, math.inf, False),
    "gamma_range": (0.0, 1.0, False),
}


def _check_real(name: str, value, low: float, high: float, low_open: bool) -> None:
    """A finite real number in [low, high], or (low, high] if low_open."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if value > high or value < low or (low_open and value == low):
        interval = f"{'(' if low_open else '['}{low:g}, {high:g}]"
        raise ValueError(f"{name} must be in {interval}, got {value!r}")


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce a run; serialized as JSON key-values."""

    # world
    n_nodes: int = 200
    n_agents: int = 5
    grid_spacing_km: float = 50.0
    ground_range_km: float = 100.0
    commute_fraction: float = 0.11
    pop_median: float = 10_000.0
    pop_sigma: float = 0.5
    airport_density: float = 0.05
    air_fraction: float = 0.005
    # epidemic (per-agent uniform draws)
    beta_range: tuple[float, float] = (0.2, 0.5)
    gamma_range: tuple[float, float] = (0.1, 0.2)
    case_fatality: float = 0.01
    initial_infected: float = 0.001
    # vaccination
    capacities: list[float] | None = None
    capacity_median: float = 0.02
    capacity_sigma: float = 0.5
    epsilon: float = 0.2
    budget_multiplier: float = 1.0
    # run
    horizon: int = 104
    policy: str = "ts"
    sharing: bool = False
    seed: int = 0

    def __post_init__(self):
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        for name, bounds in _REAL_FIELDS.items():
            _check_real(name, getattr(self, name), *bounds)
        for name, bounds in _RANGE_FIELDS.items():
            pair = getattr(self, name)
            try:
                lo, hi = pair
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a [low, high] pair, got {pair!r}") from None
            _check_real(name, lo, *bounds)
            _check_real(name, hi, *bounds)
            if lo > hi:
                raise ValueError(f"{name} must be ordered low <= high, got {pair!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        if not isinstance(self.sharing, bool):
            raise ValueError(f"sharing must be true or false, got {self.sharing!r}")
        if self.capacities is not None:
            if not isinstance(self.capacities, (list, tuple)):
                raise ValueError(f"capacities must be a list, got {self.capacities!r}")
            if len(self.capacities) != self.n_agents:
                raise ValueError("capacities list must have one entry per agent")
            for cap in self.capacities:
                _check_real("capacities", cap, 0.0, 1.0, True)
        self.beta_range = tuple(self.beta_range)
        self.gamma_range = tuple(self.gamma_range)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["beta_range"] = list(self.beta_range)
        d["gamma_range"] = list(self.gamma_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def save(self, path) -> None:
        netmod._write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "ScenarioConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                return cls.from_dict(json.load(fh))
            except (ValueError, RecursionError) as exc:  # decode, JSON, depth or field
                raise ValueError(f"{path}: {exc}") from None

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


def capacity_to_mean_efficiency(capacities: np.ndarray) -> np.ndarray:
    """Min-max scale agent capacities onto the efficiency range; a flat
    capacity profile maps everyone to the midpoint."""
    capacities = np.asarray(capacities, dtype=float)
    if capacities.size == 0:
        raise ValueError("at least one agent required")
    lo, hi = capacities.min(), capacities.max()
    mid = 0.5 * (EFFICIENCY_LO + EFFICIENCY_HI)
    if hi == lo:
        return np.full(capacities.shape, mid)
    frac = (capacities - lo) / (hi - lo)
    return EFFICIENCY_LO + frac * (EFFICIENCY_HI - EFFICIENCY_LO)


def draw_mean_rates(base_rates: np.ndarray, agent_of: np.ndarray, epsilon: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Per-node mean efficiency: a realized-rate draw around the owning
    agent's base rate."""
    base_rates = np.asarray(base_rates, dtype=float)
    return draw_realized_rates(base_rates[np.asarray(agent_of, dtype=int)], epsilon, rng)


def draw_realized_rates(mean_rates: np.ndarray, epsilon: float,
                        rng: np.random.Generator) -> np.ndarray:
    """One period's realized efficiencies: uniform around each node's mean,
    clipped into [0, 1]. Drawn for every node so allocation choices never
    shift the stream."""
    mean_rates = np.asarray(mean_rates, dtype=float)
    if epsilon < 0:
        raise ValueError("uncertainty level must be nonnegative")
    low = mean_rates - epsilon
    # rng.uniform(low, high) draws low + (high - low) * u, one double u per
    # node; drawing u with rng.random takes the same stream at a third of
    # the cost of uniform's array arguments
    draws = low + ((mean_rates + epsilon) - low) * rng.random(mean_rates.shape)
    return np.clip(draws, 0.0, 1.0)


def budgets(capacities: np.ndarray, populations: np.ndarray, agent_of: np.ndarray,
            multiplier: float = 1.0) -> np.ndarray:
    """Per-agent per-period budget: multiplier * capacity * agent population."""
    capacities = np.asarray(capacities, dtype=float)
    populations = np.asarray(populations, dtype=float)
    agent_of = np.asarray(agent_of, dtype=int)
    if multiplier <= 0:
        raise ValueError("budget multiplier must be positive")
    agent_pop = np.bincount(agent_of, weights=populations,
                            minlength=capacities.shape[0])
    return multiplier * capacities * agent_pop


@dataclass
class Instance:
    """A fully generated problem instance, ready to simulate."""

    config: ScenarioConfig
    populations: np.ndarray
    agent_of: np.ndarray
    network: FlowMatrix
    params: EpiParams
    initial: CompartmentState
    capacities: np.ndarray
    base_budgets: np.ndarray
    costs: np.ndarray
    efficiency: EfficiencyModel


# the ScenarioConfig fields a world is built from; build-net takes each as a flag
WORLD_FIELDS = ("n_nodes", "n_agents", "grid_spacing_km", "pop_median", "pop_sigma",
                "airport_density", "air_fraction", "ground_range_km", "commute_fraction")


def build_world(config: ScenarioConfig, seed) -> tuple:
    """(nodes, airports, air table, network) of the synthetic world of the
    config's WORLD_FIELDS, drawn from ``seed`` (an int or a SeedSequence)."""
    nodes, airports, air_table, nearest = netmod.synth_world(
        config.n_nodes, config.n_agents,
        grid_spacing_km=config.grid_spacing_km,
        pop_median=config.pop_median, pop_sigma=config.pop_sigma,
        airport_density=config.airport_density, air_fraction=config.air_fraction,
        seed=seed, with_assignment=True)
    network = netmod.build_network(nodes, airports, air_table,
                                   D=config.ground_range_km,
                                   alpha=config.commute_fraction, planar=True,
                                   nearest=nearest)
    return nodes, airports, air_table, network


def build_instance(config: ScenarioConfig) -> Instance:
    """Generate world, epidemic parameters and vaccination data from a config."""
    seed = config.seed
    nodes, _, _, network = build_world(
        config, np.random.SeedSequence(entropy=(seed, _STREAM_WORLD)))
    populations, agent_of = nodes.population, nodes.agent_id
    k = config.n_agents

    if config.capacities is not None:
        caps = np.asarray(config.capacities, dtype=float)
    else:
        cap_rng = stream(seed, _STREAM_CAPACITY)
        caps = cap_rng.lognormal(mean=math.log(config.capacity_median),
                                 sigma=config.capacity_sigma, size=k)
        caps = np.clip(caps, 1e-6, 1.0)

    epi_rng = stream(seed, _STREAM_EPI)
    beta_k = epi_rng.uniform(*config.beta_range, size=k)
    gamma_k = epi_rng.uniform(*config.gamma_range, size=k)
    params = EpiParams(beta=beta_k[agent_of], gamma=gamma_k[agent_of],
                       cfr=np.full(config.n_nodes, config.case_fatality))

    i0 = np.full(config.n_nodes, config.initial_infected)
    initial = CompartmentState(s=1.0 - i0, i=i0, r=np.zeros(config.n_nodes),
                               d=np.zeros(config.n_nodes), t=0)

    base = capacity_to_mean_efficiency(caps)
    theta = draw_mean_rates(base, agent_of, config.epsilon,
                            stream(seed, _STREAM_MEAN_RATES))
    eff = EfficiencyModel(mean_rates=theta, epsilon=config.epsilon)

    return Instance(
        config=config, populations=populations, agent_of=agent_of,
        network=network, params=params, initial=initial, capacities=caps,
        base_budgets=budgets(caps, populations, agent_of, config.budget_multiplier),
        costs=populations.copy(), efficiency=eff)
