import math
from unittest import mock

import numpy as np
import pytest
from scipy import integrate

import epidemic_oracle
from conftest import observer_doses
from virodyne import epidemic
from virodyne.channel import Environment, RectangularDuctReflecting
from virodyne.epidemic import (
    Agent,
    EpidemicConfig,
    EpidemicSnapshot,
    run,
    step,
)
from virodyne.core import rng_stream
from virodyne.errors import SingularPoint
from virodyne.mobility import (
    Box,
    KnotTable,
    MobilityModel,
    RandomWaypoint,
    Trajectory,
    sample_trajectory,
)

ENV = Environment(diffusivity=40.0)


def _static_agent(agent_id, pos, rate=0.0, horizon=1000.0, infected_since=None,
                  breathing=1.0):
    return Agent(agent_id, Trajectory.static(pos, 0.0, horizon),
                 emission_rate=rate, breathing_rate=breathing,
                 infected_since=infected_since)


class TestAccumulateDose:
    def test_no_infected_is_zero(self):
        sus = _static_agent(0, (1, 0, 0))
        assert observer_doses([sus], [], ENV, 0.0, 10.0)[0] == 0.0

    def test_linearity_in_emission_rate(self):
        sus = _static_agent(0, (2, 0, 0))
        inf1 = _static_agent(1, (0, 0, 0), rate=1.0)
        inf2 = _static_agent(1, (0, 0, 0), rate=2.0)
        d1 = observer_doses([sus], [(inf1, 0.0)], ENV, 50.0, 60.0)[0]
        d2 = observer_doses([sus], [(inf2, 0.0)], ENV, 50.0, 60.0)[0]
        assert d2 == pytest.approx(2 * d1, rel=1e-12)

    def test_steady_state_increment(self):
        # Long after emission starts, the increment approaches
        # (t1 - t0) * Q / (4 pi D d).
        d, Q = 3.0, 1.0
        sus = _static_agent(0, (d, 0, 0), horizon=1e5)
        inf = _static_agent(1, (0, 0, 0), rate=Q, horizon=1e5)
        t0, t1 = 5e4, 5e4 + 20.0
        got = observer_doses([sus], [(inf, 0.0)], ENV, t0, t1)[0]
        expect = 20.0 * Q / (4 * math.pi * 40.0 * d)
        # the erfc transient still holds the field ~0.12% below steady here
        assert got == pytest.approx(expect, rel=2e-3)

    def test_dose_decreases_with_distance(self):
        inf = _static_agent(1, (0, 0, 0), rate=1.0)
        observers = [_static_agent(0, (d, 0, 0)) for d in (1.0, 2.0, 4.0, 8.0)]
        doses = observer_doses(observers, [(inf, 0.0)], ENV, 100.0, 110.0).tolist()
        assert all(a > b for a, b in zip(doses, doses[1:]))

    def test_observer_on_a_source_is_singular(self):
        # A susceptible standing on a contagious agent's point: the static
        # continuous kernel diverges there once emission has begun.
        sus = _static_agent(0, (1, 2, 3))
        inf = _static_agent(1, (1, 2, 3), rate=1.0, infected_since=-1.0)
        with pytest.raises(SingularPoint, match="diverges at the source"):
            observer_doses([sus], [(inf, 0.0)], ENV, 0.0, 10.0)
        config = EpidemicConfig(dose_coefficient=1.0, latency=0.0, step=10.0,
                                horizon=30.0)
        with pytest.raises(SingularPoint, match="diverges at the source"):
            run([sus, inf], config, ENV, seed=0)

    @pytest.mark.parametrize("t1", [10.0, 5.0])
    def test_interval_must_be_positive(self, t1):
        sus = _static_agent(0, (1, 0, 0))
        with pytest.raises(ValueError, match="t1 > t0"):
            observer_doses([sus], [], ENV, 10.0, t1)


class TestStep:
    def test_zero_infected_stays_zero(self):
        agents = tuple(_static_agent(i, (i, 0, 0)) for i in range(3))
        cfg = EpidemicConfig(dose_coefficient=10.0, latency=0.0, step=1.0,
                             horizon=10.0)
        state = run(agents, cfg, ENV, seed=0)
        assert all(s.infected_count == 0 for s in state.snapshots)

    def test_k_zero_never_infects(self):
        agents = (
            _static_agent(0, (0, 0, 0), rate=1.0, infected_since=0.0),
            _static_agent(1, (1, 0, 0)),
        )
        cfg = EpidemicConfig(dose_coefficient=0.0, latency=0.0, step=1.0,
                             horizon=20.0)
        state = run(agents, cfg, ENV, seed=0)
        assert state.snapshots[-1].infected_count == 1

    def test_monotone_infected_count(self):
        agents = tuple(
            _static_agent(i, (0.8 * i, 0, 0), rate=0.5,
                          infected_since=0.0 if i == 0 else None)
            for i in range(5)
        )
        cfg = EpidemicConfig(dose_coefficient=30.0, latency=2.0, step=1.0,
                             horizon=40.0)
        state = run(agents, cfg, ENV, seed=3)
        counts = [s.infected_count for s in state.snapshots]
        assert counts == sorted(counts)
        assert counts[-1] > 1  # the outbreak actually spreads here

    def test_last_step_ends_at_the_horizon(self):
        # 25 s in steps of 10: two whole steps, then one of 5 s.
        agents = (
            _static_agent(0, (0, 0, 0), rate=1.0, infected_since=0.0, horizon=25.0),
            _static_agent(1, (1, 0, 0), horizon=25.0),
        )
        cfg = EpidemicConfig(dose_coefficient=0.0, latency=0.0, step=10.0,
                             horizon=25.0)
        state = run(agents, cfg, ENV, seed=0)
        assert [s.time for s in state.snapshots] == [0.0, 10.0, 20.0, 25.0]
        last = observer_doses([agents[1]], [(agents[0], 0.0)], ENV, 20.0, 25.0)[0]
        assert state.snapshots[-1].cumulative_dose[1] - state.snapshots[-2].cumulative_dose[1] \
            == pytest.approx(last, rel=1e-12)
        # Ten steps of 0.1 s sum to 0.9999999999999999; the last ends at 1.0.
        cfg = EpidemicConfig(dose_coefficient=0.0, latency=0.0, step=0.1, horizon=1.0)
        times = [s.time for s in run(agents, cfg, ENV, seed=0).snapshots]
        assert len(times) == 11 and times[-1] == 1.0

    def test_path_ending_before_horizon_holds_last_knot(self):
        # The index case walks for 20 s of a 50 s run, a susceptible for
        # 15 s; each then stands at its last knot, exactly as on the same
        # path with an explicit hold knot at 50 s.
        walk = Trajectory.straight_line((0, 0, 0), (0.05, 0.02, 0.0), 0.0, 20.0)
        sit = Trajectory.straight_line((2, 0.5, 0), (-0.03, 0.0, 0.01), 0.0, 15.0)

        def held(traj):
            return Trajectory(np.append(traj.times, 50.0),
                              np.vstack([traj.points, traj.points[-1]]))

        def population(a, b):
            return (Agent(0, a, emission_rate=1.0, infected_since=0.0),
                    Agent(1, b, emission_rate=1.0),
                    _static_agent(2, (1.5, -0.5, 0), rate=1.0, horizon=50.0))

        cfg = EpidemicConfig(dose_coefficient=40.0, latency=0.0, step=10.0,
                             horizon=50.0)
        got = run(population(walk, sit), cfg, ENV, seed=5).snapshots
        want = run(population(held(walk), held(sit)), cfg, ENV, seed=5).snapshots
        assert [s.time for s in got] == [0.0, 10.0, 20.0, 30.0, 40.0, 50.0]
        for g, w in zip(got, want, strict=True):
            assert g.time == w.time
            assert np.array_equal(g.infected_since, w.infected_since, equal_nan=True)
            assert g.cumulative_dose.tobytes() == w.cumulative_dose.tobytes()
        assert got[-1].cumulative_dose[1] > got[2].cumulative_dose[1] > 0

    def test_latency_gates_emission(self):
        # Within the latency window the index case contributes no dose.
        agents = (
            _static_agent(0, (0, 0, 0), rate=1.0, infected_since=0.0),
            _static_agent(1, (1, 0, 0)),
        )
        cfg = EpidemicConfig(dose_coefficient=1.0, latency=5.0, step=1.0,
                             horizon=10.0)
        snap = EpidemicSnapshot(time=0.0,
                                infected_since=np.array([0.0, np.nan]),
                                cumulative_dose=np.zeros(2))
        table = KnotTable([a.trajectory for a in agents])
        nxt = step(snap, agents, cfg, ENV, rng_stream(0, 0), table)
        assert nxt.cumulative_dose[1] == 0.0  # emission starts at t=5
        later = EpidemicSnapshot(time=6.0,
                                 infected_since=np.array([0.0, np.nan]),
                                 cumulative_dose=np.zeros(2))
        nxt2 = step(later, agents, cfg, ENV, rng_stream(0, 0), table)
        assert nxt2.cumulative_dose[1] > 0.0

    def test_cumulative_dose_frozen_after_infection(self):
        agents = (
            _static_agent(0, (0, 0, 0), rate=1.0, infected_since=0.0),
            _static_agent(1, (0.5, 0, 0)),
        )
        cfg = EpidemicConfig(dose_coefficient=1e4, latency=0.0, step=1.0,
                             horizon=30.0)
        state = run(agents, cfg, ENV, seed=1)
        infected_at = next(s.time for s in state.snapshots
                           if math.isfinite(s.infected_since[1]))
        final = state.snapshots[-1].cumulative_dose[1]
        at_infection = next(s.cumulative_dose[1] for s in state.snapshots
                            if s.time == infected_at)
        assert final == at_infection
        assert infected_at <= 3.0  # huge k infects almost immediately

    def test_thread_count_invariance(self, monkeypatch):
        agents = tuple(
            _static_agent(i, (1.5 * i, 0, 0), rate=0.5,
                          infected_since=0.0 if i == 0 else None)
            for i in range(6)
        )
        cfg = EpidemicConfig(dose_coefficient=20.0, latency=0.0, step=2.0,
                             horizon=30.0)
        monkeypatch.setenv("VIRODYNE_THREADS", "1")
        a = run(agents, cfg, ENV, seed=5)
        monkeypatch.setenv("VIRODYNE_THREADS", "8")
        b = run(agents, cfg, ENV, seed=5)
        for sa, sb in zip(a.snapshots, b.snapshots):
            assert np.array_equal(sa.infected_since, sb.infected_since,
                                  equal_nan=True)
            assert np.array_equal(sa.cumulative_dose, sb.cumulative_dose)


class TestInfectionTimeDistribution:
    def test_matches_closed_form_hazard(self):
        # Two static agents: the susceptible's infection time follows the
        # discrete-step survival S(t) = exp(-k dose(t)) with dose(t) the
        # exact closed-form integral of Q erfc / (4 pi D d). Monte-Carlo
        # mean over 10^4 seeded runs must match within 2%.
        D, d, Q, k = 40.0, 1.0, 1.0, 60.0
        dt, horizon, breathing = 1.0, 50.0, 4.0
        rho = Q / (4 * math.pi * D * d)

        def conc(t):
            return rho * math.erfc(d / (2 * math.sqrt(D * t))) if t > 0 else 0.0

        n_steps = int(horizon / dt)
        doses = np.array([integrate.quad(conc, 0, j * dt, limit=200)[0]
                          for j in range(n_steps + 1)])
        survival = np.exp(-k * doses)
        t_steps = np.arange(1, n_steps + 1) * dt
        mean_oracle = float((t_steps * (survival[:-1] - survival[1:])).sum()
                            + horizon * survival[-1])

        cfg = EpidemicConfig(dose_coefficient=k, latency=0.0, step=dt,
                             horizon=horizon)
        tr_inf = Trajectory.static((0, 0, 0), 0.0, horizon)
        tr_sus = Trajectory.static((d, 0, 0), 0.0, horizon)
        times = np.empty(10_000)
        for rep in range(times.size):
            agents = (
                Agent(0, tr_inf, emission_rate=Q, breathing_rate=breathing,
                      infected_since=0.0),
                Agent(1, tr_sus, emission_rate=0.0, breathing_rate=breathing),
            )
            state = run(agents, cfg, ENV, seed=rep)
            times[rep] = next(
                (s.time for s in state.snapshots
                 if math.isfinite(s.infected_since[1])), horizon)
        assert float(times.mean()) == pytest.approx(mean_oracle, rel=0.02)


class TestBatchedStepOracle:
    """The batched step against the per-susceptible step it replaced
    (tests/epidemic_oracle.py): every snapshot bit for bit."""

    @staticmethod
    def _population(seed, n, box, breathing_rates):
        model = MobilityModel(RandomWaypoint(0.5, 1.5, 2.0), box)
        agents = []
        for i in range(n):
            stream = rng_stream(seed, i + 1)
            traj = sample_trajectory(model, stream.uniform(box.lo, box.hi), 80.0, stream)
            agents.append(Agent(i, traj, emission_rate=1e-5 * (1 + i % 3),
                                breathing_rate=breathing_rates[i % len(breathing_rates)],
                                infected_since=-2.0 if i < 3 else None))
        return tuple(agents)

    @pytest.mark.parametrize("env", [
        Environment(diffusivity=5.0, wind=(0.4, 0.1, 0.0)),
        Environment(diffusivity=2.0, wind=(0.3, 0.0, 0.0),
                    boundary=RectangularDuctReflecting(4.0, 3.0)),
    ], ids=["windy", "duct"])
    def test_snapshots_equal_per_susceptible_oracle(self, env):
        box = Box(lo=(0.0, 0.0, 0.0), hi=(12.0, 4.0, 3.0))
        agents = self._population(11, 9, box, (1.0, 0.5, 2.0))
        cfg = EpidemicConfig(dose_coefficient=4e4, latency=15.0, step=5.0,
                             horizon=80.0)
        state = run(agents, cfg, env, seed=4)
        snap, stream = state.snapshots[0], rng_stream(4, 0)
        for got in state.snapshots[1:]:
            snap = epidemic_oracle.step(snap, agents, cfg, env, stream)
            assert got.time == snap.time
            assert np.array_equal(got.infected_since, snap.infected_since,
                                  equal_nan=True)
            assert np.array_equal(got.cumulative_dose, snap.cumulative_dose)
        first, last = state.snapshots[1], state.snapshots[-1]
        assert first.infected_count < last.infected_count

    def test_run_builds_one_knot_table(self):
        # Every step of a run reads positions from the table built at its
        # start, and matches steps that each build their own.
        box = Box(lo=(0.0, 0.0, 0.0), hi=(12.0, 4.0, 3.0))
        agents = self._population(5, 7, box, (1.0, 2.0))
        cfg = EpidemicConfig(dose_coefficient=4e4, latency=5.0, step=5.0, horizon=40.0)
        env = Environment(diffusivity=2.0)
        with mock.patch.object(epidemic, "KnotTable", wraps=KnotTable) as built:
            state = run(agents, cfg, env, seed=2)
        assert built.call_count == 1
        snap, stream = state.snapshots[0], rng_stream(2, 0)
        for got in state.snapshots[1:]:
            snap = step(snap, agents, cfg, env, stream,
                        KnotTable([a.trajectory for a in agents]))
            assert np.array_equal(got.infected_since, snap.infected_since, equal_nan=True)
            assert got.cumulative_dose.tobytes() == snap.cumulative_dose.tobytes()

    def test_accumulate_dose_equals_oracle(self):
        env = Environment(diffusivity=3.0, wind=(0.2, 0.0, 0.0),
                          boundary=RectangularDuctReflecting(5.0, 3.0))
        box = Box(lo=(0.0, 0.0, 0.0), hi=(10.0, 5.0, 3.0))
        agents = self._population(2, 6, box, (1.0, 3.0))
        infected = [(agents[0], 4.0), (agents[1], 30.0), (agents[2], -1.0)]
        for t0, t1 in ((0.0, 10.0), (20.0, 27.5), (40.0, 41.0)):
            want = [epidemic_oracle.accumulate_dose(sus, infected, env, t0, t1)
                    for sus in agents[3:]]
            got = observer_doses(agents[3:], infected, env, t0, t1)
            assert got.tolist() == want
