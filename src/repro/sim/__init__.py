"""Deterministic discrete-event simulation kernel.

This subpackage replaces the C++SIM library used by the paper's original
simulator.  It provides:

* :class:`~repro.sim.kernel.Simulator` -- the event loop (schedule / cancel /
  run) with deterministic tie-breaking,
* :class:`~repro.sim.process.Process` -- simulated processes driving
  picklable bodies, with timeouts, signals and interrupts,
* :class:`~repro.sim.random.RandomStreams` -- named, independently seeded
  random streams so that components draw from decoupled sequences,
* :mod:`~repro.sim.stats` -- counters, tallies, time-weighted gauges and
  series recorders,
* :class:`~repro.sim.timers.PeriodicTimer` -- restartable periodic timers
  (the protocol resets its CLC timer whenever a forced CLC commits),
* :mod:`~repro.sim.trace` -- levelled, timestamped structured tracing,
* :mod:`~repro.sim.trace_digest` -- order-sensitive digests of the kernel
  dispatch stream (the golden trace-equivalence mechanism).

Everything is single-threaded and deterministic: running the same model with
the same seed produces the same trace, event order and statistics.
"""

from repro.sim.kernel import Event, Simulator, SimulationError, event_pending
from repro.sim.process import Interrupt, Process, Signal, Timeout
from repro.sim.random import RandomStreams, Stream
from repro.sim.stats import Counter, Series, StatsRegistry, Tally, TimeWeighted
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLevel, TraceRecord, Tracer
from repro.sim.trace_digest import TraceDigest

__all__ = [
    "Counter",
    "Event",
    "TraceDigest",
    "event_pending",
    "Interrupt",
    "PeriodicTimer",
    "Process",
    "RandomStreams",
    "Series",
    "Signal",
    "SimulationError",
    "Simulator",
    "StatsRegistry",
    "Stream",
    "Tally",
    "TimeWeighted",
    "Timeout",
    "TraceLevel",
    "TraceRecord",
    "Tracer",
]
