"""Admission defenses: token bucket, admission queue, circuit breaker
(unit + a Hypothesis state machine), and the overload config validation."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.admission import (
    AdmissionQueue,
    CircuitBreaker,
    OverloadConfig,
    TokenBucket,
)
from repro.core.config import FocusConfig
from repro.core.cpumodel import ServerCpuModel
from repro.errors import ConfigError
from repro.sim import Simulator


# ---------------------------------------------------------------- TokenBucket

class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=10.0, burst=3.0)
        assert [bucket.allow(0.0) for _ in range(4)] == [True, True, True, False]
        # 0.1 s at 10 tokens/s refills exactly one token.
        assert bucket.allow(0.1)
        assert not bucket.allow(0.1)
        assert bucket.allowed == 4
        assert bucket.throttled == 2

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0)
        bucket.allow(0.0)
        # A long idle stretch must not bank more than `burst` tokens.
        assert [bucket.allow(60.0) for _ in range(3)] == [True, True, False]

    def test_per_client_fairness(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.allow(0.0, client="greedy")
        assert not bucket.allow(0.0, client="greedy")
        # The greedy client's exhaustion does not tax anyone else.
        assert bucket.allow(0.0, client="polite")


# ------------------------------------------------------------- AdmissionQueue

def _queue(sim, **kwargs):
    model = ServerCpuModel(1.0, per_request_cpu=0.1)
    return AdmissionQueue(sim, model, **kwargs)


def _entry(log, name):
    return (lambda sojourn: log.append((name, "served", round(sojourn, 6))),
            lambda reason: log.append((name, reason)))


class TestAdmissionQueue:
    def test_fifo_serves_in_arrival_order(self):
        sim = Simulator(seed=0)
        queue = _queue(sim, capacity=8, discipline="fifo", deadline=None)
        log = []
        for name in ("a", "b", "c"):
            run, shed = _entry(log, name)
            assert queue.submit(0.1, run, shed)
        sim.run_until(1.0)
        assert [name for name, *_ in log] == ["a", "b", "c"]
        assert queue.admitted == 3
        assert len(queue) == 0

    def test_lifo_serves_freshest_first(self):
        sim = Simulator(seed=0)
        queue = _queue(sim, capacity=8, discipline="lifo", deadline=None)
        log = []
        for name in ("a", "b", "c"):
            run, shed = _entry(log, name)
            queue.submit(0.1, run, shed)
        sim.run_until(1.0)
        # "a" entered service immediately; afterwards the freshest waits.
        assert [name for name, *_ in log] == ["a", "c", "b"]

    def test_capacity_shed_is_immediate(self):
        sim = Simulator(seed=0)
        queue = _queue(sim, capacity=1, discipline="fifo", deadline=None)
        log = []
        runs = [_entry(log, name) for name in ("a", "b", "c")]
        assert queue.submit(0.1, *runs[0])   # in service
        assert queue.submit(0.1, *runs[1])   # queued
        assert not queue.submit(0.1, *runs[2])  # over capacity: shed now
        assert ("c", "queue-full") in log
        assert queue.shed_capacity == 1
        sim.run_until(1.0)
        assert ("a", "served", 0.1) in log and ("b", "served", 0.2) in log

    def test_deadline_shed_at_dequeue(self):
        sim = Simulator(seed=0)
        queue = _queue(sim, capacity=8, discipline="fifo", deadline=0.5)
        log = []
        first, stale = _entry(log, "first"), _entry(log, "stale")
        queue.submit(1.0, *first)   # occupies the lane for a full second
        queue.submit(0.1, *stale)   # will have waited 1 s > 0.5 s deadline
        sim.run_until(2.0)
        assert ("first", "served", 1.0) in log
        assert ("stale", "deadline") in log
        assert queue.shed_deadline == 1

    def test_sojourn_includes_queue_wait(self):
        sim = Simulator(seed=0)
        queue = _queue(sim, capacity=8, discipline="fifo", deadline=None)
        log = []
        queue.submit(0.4, *_entry(log, "a"))
        queue.submit(0.1, *_entry(log, "b"))
        sim.run_until(1.0)
        assert ("b", "served", 0.5) in log  # 0.4 s wait + 0.1 s service

    def test_reset_drops_pending_work(self):
        sim = Simulator(seed=0)
        queue = _queue(sim, capacity=8, discipline="fifo", deadline=None)
        log = []
        queue.submit(0.5, *_entry(log, "a"))
        queue.submit(0.5, *_entry(log, "b"))
        queue.reset()
        assert len(queue) == 0
        assert queue.model.busy_until == 0.0


# ------------------------------------------------------------- CircuitBreaker

def _breaker(**kwargs):
    defaults = dict(failure_threshold=0.5, min_volume=4, window=8,
                    cooldown=5.0, half_open_probes=2)
    defaults.update(kwargs)
    return CircuitBreaker(**defaults)


class TestCircuitBreakerUnit:
    def test_stays_closed_below_min_volume(self):
        breaker = _breaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_trips_on_failure_rate(self):
        breaker = _breaker()
        for _ in range(2):
            breaker.record_success(0.0)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_count == 1
        assert not breaker.allow(1.0)
        assert breaker.rejected == 1

    def test_slow_success_counts_as_failure(self):
        breaker = _breaker(latency_threshold=1.0, min_volume=2)
        breaker.record_success(0.0, latency=5.0)
        breaker.record_success(0.0, latency=5.0)
        assert breaker.state == CircuitBreaker.OPEN

    def test_cooldown_opens_probe_window(self):
        breaker = _breaker()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow(4.9)
        assert breaker.allow(5.1)
        assert breaker.state == CircuitBreaker.HALF_OPEN

    def test_half_open_admits_exactly_probe_budget(self):
        breaker = _breaker(half_open_probes=2)
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(6.0)
        assert breaker.allow(6.0)
        assert not breaker.allow(6.0)  # third concurrent probe rejected

    def test_all_probes_succeeding_recloses(self):
        breaker = _breaker(half_open_probes=2)
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(6.0) and breaker.allow(6.0)
        breaker.record_success(6.1)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.record_success(6.2)
        assert breaker.state == CircuitBreaker.CLOSED

    def test_probe_failure_reopens(self):
        breaker = _breaker()
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.allow(6.0)
        breaker.record_failure(6.1)
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_count == 2
        # The fresh cooldown starts from the probe failure, not the old trip.
        assert not breaker.allow(10.0)
        assert breaker.allow(11.2)

    def test_peek_does_not_consume_probe_slots(self):
        breaker = _breaker(half_open_probes=1)
        for _ in range(4):
            breaker.record_failure(0.0)
        assert breaker.peek(6.0)          # transitions to half-open...
        assert breaker.peek(6.0)          # ...but claims nothing
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow(6.0)         # the single probe slot is intact
        assert not breaker.peek(6.0)      # and now visibly exhausted


class BreakerMachine(RuleBasedStateMachine):
    """The breaker can never wedge and never over-admits probes.

    Random interleavings of time advances, admission attempts, and
    success/failure outcomes must keep three properties: the state is
    always one of the three named states; once the cooldown has elapsed an
    open breaker's next admission check transitions it (open is never
    sticky); and half-open never has more than ``half_open_probes``
    unresolved admitted probes.
    """

    COOLDOWN = 5.0
    PROBES = 2

    def __init__(self):
        super().__init__()
        self.now = 0.0
        self.breaker = CircuitBreaker(
            failure_threshold=0.5, min_volume=3, window=6,
            cooldown=self.COOLDOWN, half_open_probes=self.PROBES,
        )
        self.outstanding_probes = 0
        self.opened_at = None

    def _note_state_change(self):
        if self.breaker.state == CircuitBreaker.OPEN:
            if self.opened_at is None:
                self.opened_at = self.now
        else:
            self.opened_at = None
        if self.breaker.state != CircuitBreaker.HALF_OPEN:
            self.outstanding_probes = 0

    @rule(dt=st.floats(min_value=0.01, max_value=4.0))
    def advance_time(self, dt):
        self.now += dt

    @rule()
    def request(self):
        was_closed = self.breaker.state == CircuitBreaker.CLOSED
        allowed = self.breaker.allow(self.now)
        if was_closed:
            assert allowed, "a closed breaker must admit"
        if allowed and self.breaker.state == CircuitBreaker.HALF_OPEN:
            self.outstanding_probes += 1
        self._note_state_change()

    @rule(ok=st.booleans(), latency=st.floats(min_value=0.0, max_value=1.0))
    def outcome(self, ok, latency):
        if self.breaker.state == CircuitBreaker.HALF_OPEN:
            if self.outstanding_probes == 0:
                return  # nothing in flight to resolve
            self.outstanding_probes -= 1
        if ok:
            self.breaker.record_success(self.now, latency=latency)
        else:
            self.breaker.record_failure(self.now)
        self._note_state_change()

    @rule()
    def cooldown_always_reopens_admission(self):
        """An open breaker past its cooldown must transition on contact."""
        if self.breaker.state != CircuitBreaker.OPEN:
            return
        self.now = max(self.now, (self.opened_at or self.now) + self.COOLDOWN + 0.01)
        # Cooldowns are exact, so the full cooldown bound holds.
        assert self.breaker.peek(self.now), "open breaker wedged past cooldown"
        assert self.breaker.state == CircuitBreaker.HALF_OPEN
        self._note_state_change()

    @invariant()
    def state_is_valid(self):
        assert self.breaker.state in (
            CircuitBreaker.CLOSED, CircuitBreaker.OPEN, CircuitBreaker.HALF_OPEN
        )

    @invariant()
    def probe_budget_respected(self):
        assert self.outstanding_probes <= self.PROBES


TestBreakerStateMachine = BreakerMachine.TestCase
TestBreakerStateMachine.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)


# ------------------------------------------------------------ config gating

class TestOverloadConfigValidation:
    def test_defaults_validate(self):
        OverloadConfig().validate()
        FocusConfig().validate()

    def test_defense_without_cpu_model_rejected(self):
        config = OverloadConfig(throttle_enabled=True)
        with pytest.raises(ConfigError, match="cpu_model_enabled"):
            config.validate()

    def test_cpu_model_requires_master_switch(self):
        config = FocusConfig(
            server_queue_enabled=False,
            overload=OverloadConfig(cpu_model_enabled=True),
        )
        with pytest.raises(ConfigError, match="server_queue_enabled"):
            config.validate()

    def test_breaker_requires_sharded_plane(self):
        config = FocusConfig(
            shards=1,
            server_queue_enabled=True,
            overload=OverloadConfig(
                cpu_model_enabled=True, breaker_enabled=True
            ),
        )
        with pytest.raises(ConfigError, match="shards"):
            config.validate()

    @pytest.mark.parametrize("field,value,match", [
        ("cores", 0.0, "cores"),
        ("per_query_cpu", -1.0, "per_query_cpu"),
    ])
    def test_bad_cpu_model_values_rejected(self, field, value, match):
        config = OverloadConfig(**{field: value})
        with pytest.raises(ConfigError, match=match):
            config.validate()

    @pytest.mark.parametrize("kwargs,match", [
        (dict(throttle_enabled=True, throttle_rate=0.0), "throttle_rate"),
        (dict(throttle_enabled=True, throttle_burst=0.5), "throttle_burst"),
        (dict(queue_enabled=True, queue_discipline="sjf"), "queue_discipline"),
        (dict(queue_enabled=True, queue_capacity=0), "queue_capacity"),
        (dict(queue_enabled=True, queue_deadline=0.0), "queue_deadline"),
        (dict(bulkhead_enabled=True, bulkhead_query_share=1.0),
         "bulkhead_query_share"),
        (dict(breaker_enabled=True, breaker_failure_threshold=0.0),
         "breaker_failure_threshold"),
        (dict(breaker_enabled=True, breaker_min_volume=0),
         "breaker_min_volume"),
        (dict(breaker_enabled=True, breaker_window=4, breaker_min_volume=8),
         "breaker_window"),
        (dict(breaker_enabled=True, breaker_cooldown=0.0), "breaker_cooldown"),
        (dict(breaker_enabled=True, breaker_half_open_probes=0),
         "breaker_half_open_probes"),
    ])
    def test_bad_defense_values_rejected(self, kwargs, match):
        config = OverloadConfig(cpu_model_enabled=True, **kwargs)
        with pytest.raises(ConfigError, match=match):
            config.validate()

    def test_bench_and_suite_configs_validate(self):
        from repro.harness.failure_suite import _storm_config
        _storm_config().validate()
        _storm_config(shards=1, breaker=False).validate()

    def test_build_shard_plane_fails_fast(self):
        from repro.core.shardplane import build_shard_plane
        sim = Simulator(seed=0)
        config = FocusConfig(
            server_queue_enabled=False,
            overload=OverloadConfig(cpu_model_enabled=True),
        )
        # validate() runs before any process is built, so the bogus network
        # argument is never touched.
        with pytest.raises(ConfigError):
            build_shard_plane(sim, None, region="r0", config=config)
