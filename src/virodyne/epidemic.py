"""Susceptible-infectious epidemic over mobile agents coupled to the
concentration field.

Each infected agent is a continuous aerosol source; each susceptible agent
accumulates inhaled dose (the time integral of the ambient concentration
along its own path) and converts dose increments into infection probability
through 1 - exp(-k * dose). Infection is irreversible, so the infected count
never decreases.

Channel coupling uses snapshot semantics: within one simulation step the set
of contagious agents is frozen, and each contagious agent is treated as a
static continuous source standing at its current position, emitting since it
became contagious (infection time plus latency). This trades accuracy for
tractability and makes a step cost linear in (susceptibles x infected x
breath samples).

All susceptibles' doses over a step are one call of the static
continuous-source kernel per breathing rate, over (susceptibles x infected
x breath samples); there is no worker pool. State transitions are applied
in agent order from one stream, so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .channel import Environment, unit_continuous_kernel
from .core import rng_stream
from .errors import SingularPoint
from .mobility import Trajectory


@dataclass(frozen=True)
class Agent:
    """One member of the population.

    infected_since is the initial disease state: None for susceptible,
    otherwise the (possibly negative) time of infection; negative values
    seed index cases that are already contagious at t=0.
    """

    agent_id: int
    trajectory: Trajectory
    emission_rate: float          # kg/s while contagious
    breathing_rate: float = 1.0   # Hz, dose sampling frequency
    infected_since: float | None = None

    def __post_init__(self):
        if self.emission_rate < 0 or not math.isfinite(self.emission_rate):
            raise ValueError("emission_rate must be finite and >= 0")
        if not 0 < self.breathing_rate < math.inf:
            raise ValueError("breathing_rate must be finite and > 0")


@dataclass(frozen=True)
class EpidemicConfig:
    dose_coefficient: float  # k, per (kg s / m^3)
    latency: float           # s before a new case becomes contagious
    step: float              # s, simulation step = coherence window
    horizon: float           # s

    def __post_init__(self):
        # Chained comparisons with inf also reject NaN.
        if not 0 <= self.dose_coefficient < math.inf:
            raise ValueError("dose_coefficient must be finite and >= 0")
        if not 0 <= self.latency < math.inf:
            raise ValueError("latency must be finite and >= 0")
        if not 0 < self.step < math.inf:
            raise ValueError("step must be finite and > 0")
        if not 0 <= self.horizon < math.inf:
            raise ValueError("horizon must be finite and >= 0")


@dataclass(frozen=True)
class EpidemicSnapshot:
    """Population state at one instant: NaN in infected_since marks a
    susceptible agent."""

    time: float
    infected_since: np.ndarray   # (N,), NaN = susceptible
    cumulative_dose: np.ndarray  # (N,), kg s / m^3

    def infected_ids(self) -> np.ndarray:
        return np.where(np.isfinite(self.infected_since))[0]

    @property
    def infected_count(self) -> int:
        return int(np.isfinite(self.infected_since).sum())


@dataclass
class EpidemicState:
    """Full time series of snapshots for one run."""

    agents: tuple[Agent, ...]
    snapshots: list[EpidemicSnapshot] = field(default_factory=list)

    def infection_curve(self) -> list[tuple[float, int]]:
        return [(s.time, s.infected_count) for s in self.snapshots]


def _dose_sample_times(t0: float, t1: float, breathing_rate: float) -> np.ndarray:
    n = max(1, int(round((t1 - t0) * breathing_rate)))
    return np.linspace(t0, t1, n + 1)


def _doses(observers: Sequence[Agent], infected_set: Iterable[tuple[Agent, float]],
           env: Environment, t0: float, t1: float) -> np.ndarray:
    """Dose picked up by each observer over [t0, t1], kg s / m^3: one
    unit_continuous_kernel call per breathing rate over (observers x
    infected x breath samples), then the trapezoid rule per observer."""
    out = np.zeros(len(observers))
    infected = list(infected_set)
    if not (infected and observers):
        return out
    rates = np.array([other.emission_rate for other, _ in infected])
    starts = np.array([max(0.0, em) for _, em in infected])
    breathing = np.array([agent.breathing_rate for agent in observers])
    for rate in dict.fromkeys(breathing.tolist()):
        rows = np.flatnonzero(breathing == rate)
        ts = _dose_sample_times(t0, t1, rate)
        sources = np.concatenate([other.trajectory.points_at(ts) for other, _ in infected])
        observed = np.stack([observers[j].trajectory.points_at(ts) for j in rows])
        kern = unit_continuous_kernel(
            env, np.tile(sources, (rows.size, 1)),
            np.repeat(observed, len(infected), axis=0).reshape(-1, 3),
            np.tile((ts[None, :] - starts[:, None]).ravel(), rows.size))
        if np.isinf(kern).any():
            raise SingularPoint("continuous-source field diverges at the source position")
        conc = (rates[:, None] * kern.reshape(rows.size, len(infected), ts.size)).sum(axis=1)
        out[rows] = np.trapezoid(conc, ts, axis=1)
    return out


def accumulate_dose(
    agent: Agent,
    infected_set: Iterable[tuple[Agent, float]],
    env: Environment,
    t0: float,
    t1: float,
) -> float:
    """Dose picked up by `agent` over [t0, t1], kg s / m^3.

    infected_set pairs each contagious agent with its emission start time.
    An agent still inside its latency window adds nothing, as the kernel is
    0 for tau <= 0. Trapezoidal integration of the summed snapshot
    concentration at the agent's breathing sample times; the one-agent case
    of the batched dose that step computes.
    """
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    return float(_doses([agent], infected_set, env, t0, t1)[0])


def step(
    snapshot: EpidemicSnapshot,
    agents: tuple[Agent, ...],
    config: EpidemicConfig,
    env: Environment,
    stream: np.random.Generator,
) -> EpidemicSnapshot:
    """Advance one coherence window; returns the next snapshot."""
    t0 = snapshot.time
    t1 = t0 + config.step
    since = snapshot.infected_since.copy()
    dose = snapshot.cumulative_dose.copy()

    infected_set = [
        (agents[i], float(since[i]) + config.latency)
        for i in snapshot.infected_ids()
    ]
    susceptible = np.flatnonzero(~np.isfinite(since)).tolist()

    increments = np.zeros(len(agents))
    increments[susceptible] = _doses([agents[i] for i in susceptible], infected_set,
                                     env, t0, t1)

    # Transitions: one uniform draw per susceptible, in agent order.
    k = config.dose_coefficient
    for i, u in zip(susceptible, stream.uniform(size=len(susceptible)).tolist()):
        if u < -math.expm1(-k * increments[i]):
            since[i] = t1
    dose += increments
    return EpidemicSnapshot(time=t1, infected_since=since, cumulative_dose=dose)


def run(
    population: Iterable[Agent],
    config: EpidemicConfig,
    env: Environment,
    seed: int,
) -> EpidemicState:
    """Simulate the epidemic over the configured horizon."""
    agents = tuple(sorted(population, key=lambda a: a.agent_id))
    n = len(agents)
    since0 = np.full(n, np.nan)
    for i, a in enumerate(agents):
        if a.infected_since is not None:
            since0[i] = a.infected_since
    state = EpidemicState(agents=agents)
    snap = EpidemicSnapshot(time=0.0, infected_since=since0,
                            cumulative_dose=np.zeros(n))
    state.snapshots.append(snap)
    stream = rng_stream(seed, 0)
    n_steps = int(math.ceil(config.horizon / config.step - 1e-9))
    for _ in range(n_steps):
        snap = step(snap, agents, config, env, stream)
        state.snapshots.append(snap)
    return state
