"""The epidemic step as it was when each susceptible's dose was its own
kernel call: `accumulate_dose` for one agent, and a `step` that loops over
the susceptibles calling it, then draws one scalar uniform per susceptible.
Kept as the reference that the batched step must reproduce bit for bit:
the same doses, the same draws, the same infections.
"""

from __future__ import annotations

import math

import numpy as np

from virodyne.channel import unit_continuous_kernel
from virodyne.epidemic import EpidemicSnapshot
from virodyne.errors import SingularPoint


def _dose_sample_times(t0, t1, breathing_rate):
    n = max(1, int(round((t1 - t0) * breathing_rate)))
    return np.linspace(t0, t1, n + 1)


def accumulate_dose(agent, infected_set, env, t0, t1):
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    infected = [(a, max(0.0, em)) for a, em in infected_set]
    if not infected:
        return 0.0
    ts = _dose_sample_times(t0, t1, agent.breathing_rate)
    sources = np.concatenate([other.trajectory.points_at(ts) for other, _ in infected])
    observers = np.tile(agent.trajectory.points_at(ts), (len(infected), 1))
    taus = (ts[None, :] - np.array([em for _, em in infected])[:, None]).ravel()
    kern = unit_continuous_kernel(env, sources, observers, taus)
    if np.isinf(kern).any():
        raise SingularPoint("continuous-source field diverges at the source position")
    rates = np.array([other.emission_rate for other, _ in infected])
    conc = (rates[:, None] * kern.reshape(len(infected), ts.size)).sum(axis=0)
    return float(np.trapezoid(conc, ts))


def step(snapshot, agents, config, env, stream):
    t0 = snapshot.time
    t1 = t0 + config.step
    since = snapshot.infected_since.copy()
    dose = snapshot.cumulative_dose.copy()
    infected_set = [
        (agents[i], float(since[i]) + config.latency)
        for i in snapshot.infected_ids()
    ]
    susceptible = np.where(~np.isfinite(since))[0]
    increments = np.zeros(len(agents))
    if infected_set:
        for i in susceptible:
            increments[i] = accumulate_dose(agents[i], infected_set, env, t0, t1)
    k = config.dose_coefficient
    for i in susceptible:
        p = -math.expm1(-k * increments[i])
        u = stream.uniform()
        if u < p:
            since[i] = t1
    dose += increments
    return EpidemicSnapshot(time=t1, infected_since=since, cumulative_dose=dose)
