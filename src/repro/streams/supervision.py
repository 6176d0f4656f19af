"""Runtime supervision: error policies, dead letters, circuit breakers.

The Streams analog originally assumed well-behaved processors — one
poisoned item or one crashing chain took the whole topology down.
This module gives :class:`~repro.streams.runtime.StreamRuntime` the
supervision vocabulary of production stream processors:

* an :class:`ErrorPolicy` per process — ``fail`` (propagate, the old
  behaviour), ``skip`` (dead-letter the item and move on) or ``retry``
  (re-run the chain with capped exponential backoff before
  dead-lettering);
* a per-process *soft timeout*: a chain invocation that overruns its
  budget is treated as a failure and fed through the same policy
  (cooperative — the runtime is single-threaded, so the overrun is
  detected after the call returns rather than preempted);
* a bounded :class:`DeadLetterQueue` collecting poisoned items with
  their error, attempt count and arrival time — inspectable from tests
  and from ``repro-traffic faults --dlq``; at capacity the oldest
  letters are evicted and counted;
* a :class:`CircuitBreaker` per input stream: after ``N`` consecutive
  chain failures on items of one input the breaker opens and further
  items short-circuit straight to the dead-letter queue until
  ``reset_after_s`` of *event time* has passed, at which point one
  trial item is let through (half-open) and its outcome closes or
  re-opens the breaker.

Backoff is *accounted, not slept*: the runtime executes in simulated
event time, so retry backoff is recorded in the
``streams.supervision.backoff_s`` timing instead of stalling the
dispatch loop.  All supervision activity is counted through the
``repro.obs`` registry handed to the runtime (``streams.supervision.*``
and ``streams.breaker.<input>.*`` — see ``docs/observability.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from ..obs import Registry
from .items import DataItem, payload_of


class ProcessorTimeout(Exception):
    """A processor chain overran its per-item time budget."""


@dataclass(frozen=True)
class ErrorPolicy:
    """How a process reacts to a failing processor chain.

    Parameters
    ----------
    mode:
        ``"fail"`` propagates the exception (default — identical to an
        unsupervised runtime), ``"skip"`` dead-letters the item,
        ``"retry"`` re-runs the chain up to ``max_retries`` times and
        dead-letters on exhaustion.
    max_retries:
        Retry budget per item (``retry`` mode only).
    backoff_base_s / backoff_cap_s:
        Capped exponential backoff schedule: attempt ``k`` accounts
        ``min(cap, base * 2**(k-1))`` seconds.
    timeout_s:
        Optional soft per-item budget for the whole chain; an overrun
        raises :class:`ProcessorTimeout` into the policy machinery.
    """

    mode: Literal["fail", "skip", "retry"] = "fail"
    max_retries: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.mode not in ("fail", "skip", "retry"):
            raise ValueError(
                f"mode must be 'fail', 'skip' or 'retry', got {self.mode!r}"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must not be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff values must not be negative")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive when set")

    def backoff_s(self, attempt: int) -> float:
        """Backoff accounted before retry ``attempt`` (1-based)."""
        return min(
            self.backoff_cap_s, self.backoff_base_s * (2 ** (attempt - 1))
        )


@dataclass(frozen=True)
class DeadLetter:
    """One poisoned item with its failure context."""

    process: str
    input: str
    item: DataItem
    error: str
    attempts: int
    arrival: int

    def to_dict(self) -> dict:
        """JSON-able view (CLI ``faults --dlq`` output)."""
        return {
            "process": self.process,
            "input": self.input,
            "arrival": self.arrival,
            "attempts": self.attempts,
            "error": self.error,
            "item": payload_of(self.item),
        }


class DeadLetterQueue:
    """Accumulates :class:`DeadLetter` entries for inspection.

    The queue is bounded: once ``max_size`` entries are held, filing a
    new letter evicts the oldest one (the most recent failures are the
    ones worth inspecting).  Evictions are tallied in :attr:`dropped`
    and surfaced by the supervisor as the
    ``streams.supervision.dlq.dropped`` counter.
    """

    def __init__(self, max_size: int = 10_000) -> None:
        if max_size < 1:
            raise ValueError("max_size must be at least 1")
        self.max_size = max_size
        self.letters: list[DeadLetter] = []
        #: Letters evicted to stay within ``max_size``.
        self.dropped = 0

    def append(self, letter: DeadLetter) -> None:
        """Record one dead letter, evicting the oldest when full."""
        if len(self.letters) >= self.max_size:
            overflow = len(self.letters) - self.max_size + 1
            del self.letters[:overflow]
            self.dropped += overflow
        self.letters.append(letter)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def snapshot(self) -> list[DeadLetter]:
        """A list copy of the current entries."""
        return list(self.letters)

class CircuitBreaker:
    """Consecutive-failure breaker over one input stream.

    State machine: *closed* (all traffic flows) → *open* after
    ``threshold`` consecutive failures (traffic short-circuits) →
    *half-open* once ``reset_after_s`` of event time has passed (one
    trial item flows; success closes, failure re-opens).  Tracks the
    open intervals in event time for post-run inspection.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int = 5, reset_after_s: int = 600):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        if reset_after_s < 0:
            raise ValueError("reset_after_s must not be negative")
        self.threshold = threshold
        self.reset_after_s = reset_after_s
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[int] = None
        #: Completed and ongoing open spans, in event time.
        self.open_intervals: list[tuple[int, Optional[int]]] = []

    def allow(self, now: int) -> bool:
        """Whether an item arriving at ``now`` may be processed."""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN:
            assert self.opened_at is not None
            if now - self.opened_at >= self.reset_after_s:
                self.state = self.HALF_OPEN
                return True
            return False
        return True  # half-open: the trial item flows

    def record_success(self, now: int) -> None:
        """A chain run over this input succeeded."""
        if self.state != self.CLOSED:
            self._close(now)
        self.consecutive_failures = 0

    def record_failure(self, now: int) -> None:
        """A chain run over this input failed."""
        if self.state == self.HALF_OPEN:
            # Failed trial: re-open and restart the cooldown clock.
            self.state = self.OPEN
            self.opened_at = now
            return
        self.consecutive_failures += 1
        if (
            self.state == self.CLOSED
            and self.consecutive_failures >= self.threshold
        ):
            self.state = self.OPEN
            self.opened_at = now
            self.open_intervals.append((now, None))

    def _close(self, now: int) -> None:
        self.state = self.CLOSED
        self.opened_at = None
        if self.open_intervals and self.open_intervals[-1][1] is None:
            start, _ = self.open_intervals[-1]
            self.open_intervals[-1] = (start, now)

    @property
    def is_open(self) -> bool:
        return self.state == self.OPEN


@dataclass
class Supervisor:
    """Supervision configuration + state for one runtime execution.

    Parameters
    ----------
    default_policy:
        Applied to processes with no dedicated policy.  The default
        (``fail``) reproduces unsupervised behaviour, so attaching a
        supervisor is opt-in per process.
    policies:
        Per-process overrides by process name.  A policy attached
        directly to a :class:`~repro.streams.processes.Process` wins
        over both.
    breaker_threshold / breaker_reset_s:
        Circuit-breaker tuning shared by all inputs.
    """

    default_policy: ErrorPolicy = field(default_factory=ErrorPolicy)
    policies: dict[str, ErrorPolicy] = field(default_factory=dict)
    breaker_threshold: int = 5
    breaker_reset_s: int = 600
    dead_letters: DeadLetterQueue = field(default_factory=DeadLetterQueue)
    metrics: Optional[Registry] = None
    breakers: dict[str, CircuitBreaker] = field(default_factory=dict)

    def policy_for(self, process) -> ErrorPolicy:
        """The effective policy of a process (process > name > default)."""
        if getattr(process, "policy", None) is not None:
            return process.policy
        return self.policies.get(process.name, self.default_policy)

    def breaker_for(self, input_name: str) -> CircuitBreaker:
        """Get or create the breaker guarding ``input_name``."""
        breaker = self.breakers.get(input_name)
        if breaker is None:
            breaker = self.breakers[input_name] = CircuitBreaker(
                self.breaker_threshold, self.breaker_reset_s
            )
        return breaker

    # -- metrics helpers -------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(n)

    # -- runtime callbacks -----------------------------------------------
    def chain_failed(self, error: BaseException, *, timeout: bool) -> None:
        """Count one failed chain attempt."""
        self._count("streams.supervision.errors")
        if timeout:
            self._count("streams.supervision.timeouts")

    def account_backoff(self, seconds: float) -> None:
        """Record one retry's backoff (accounted, not slept)."""
        self._count("streams.supervision.retries")
        if self.metrics is not None:
            self.metrics.timing("streams.supervision.backoff_s").observe(
                seconds
            )

    def breaker_success(self, input_name: str, now: int) -> None:
        """Report a successful chain run to the input's breaker."""
        self.breaker_for(input_name).record_success(now)

    def breaker_failure(self, input_name: str, now: int) -> None:
        """Report a dead-lettered item to the input's breaker."""
        breaker = self.breaker_for(input_name)
        was_open = breaker.is_open
        breaker.record_failure(now)
        if breaker.is_open and not was_open:
            self._count(f"streams.breaker.{input_name}.opened")

    def short_circuit(self, input_name: str, item: DataItem,
                      arrival: int) -> None:
        """Dead-letter an item rejected by an open breaker."""
        self._count(f"streams.breaker.{input_name}.short_circuited")
        self.dead_letter(
            process=f"breaker:{input_name}",
            input_name=input_name,
            item=item,
            error="circuit open",
            attempts=0,
            arrival=arrival,
        )

    def record_breaker_states(self) -> None:
        """Publish each breaker's final state as a gauge (0 closed,
        0.5 half-open, 1 open)."""
        if self.metrics is None:
            return
        levels = {
            CircuitBreaker.CLOSED: 0.0,
            CircuitBreaker.HALF_OPEN: 0.5,
            CircuitBreaker.OPEN: 1.0,
        }
        for name, breaker in self.breakers.items():
            self.metrics.gauge(f"streams.breaker.{name}.state").set(
                levels[breaker.state]
            )

    def dead_letter(
        self,
        *,
        process: str,
        input_name: str,
        item: DataItem,
        error: BaseException | str,
        attempts: int,
        arrival: int,
    ) -> None:
        """File one dead letter and count it."""
        message = (
            error
            if isinstance(error, str)
            else f"{type(error).__name__}: {error}"
        )
        dropped_before = self.dead_letters.dropped
        self.dead_letters.append(
            DeadLetter(
                process=process,
                input=input_name,
                item=dict(item),
                error=message,
                attempts=attempts,
                arrival=arrival,
            )
        )
        self._count("streams.supervision.dead_letters")
        evicted = self.dead_letters.dropped - dropped_before
        if evicted:
            self._count("streams.supervision.dlq.dropped", evicted)
