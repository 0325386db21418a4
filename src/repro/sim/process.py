"""Simulated processes.

The paper's simulator maps every node to a C++SIM thread.  Here each node's
application (and the failure injector) is a *body* driven by the kernel: the
body returns a waitable from each step and is stepped again when the
waitable completes.

A body speaks the generator protocol, so a plain generator is one:

``send(value)``
    run one step and return what to wait on next, or raise
    :class:`StopIteration` when done,
``throw(exc)``
    deliver an :class:`Interrupt` at the current wait point,
``close()``
    release the body once the process is over.

The model's bodies are small classes (:class:`Body`) that keep their state
in plain fields, so a live federation pickles as it stands
(:mod:`repro.sim.snapshot`); a raw generator drives a process just as well
but cannot be pickled.

Supported wait targets:

``Timeout(delay)``
    resume after ``delay`` simulated seconds,
``Signal``
    resume when the signal is triggered, with the value passed to
    :meth:`Signal.trigger`.

A process may be interrupted with :meth:`Process.interrupt`, which throws
:class:`Interrupt` into the body at its wait point.  This is how node
failures preempt application computation.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Body", "Interrupt", "Process", "Signal", "Timeout"]


class Interrupt(Exception):
    """Thrown into a process body when it is interrupted.

    :param cause: arbitrary object describing why (e.g. a failure record).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Timeout:
    """Yield target: resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if not delay >= 0:  # NaN too
            raise ValueError(f"negative timeout: {delay}")
        self.delay = delay

    def __repr__(self) -> str:  # pragma: no cover
        return f"Timeout({self.delay})"


class Signal:
    """A one-shot level-triggered event processes can wait on.

    Multiple processes may wait on the same signal; all are resumed (in wait
    order) when it is triggered.  Waiting on an already-triggered signal
    resumes immediately with the stored value.  :meth:`reset` re-arms it.
    """

    __slots__ = ("_sim", "_waiters", "_triggered", "_value", "name")

    def __init__(self, sim: Simulator, name: str = ""):
        self._sim = sim
        self._waiters: list[Process] = []
        self._triggered = False
        self._value: Any = None
        self.name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the signal, waking all waiters in FIFO order."""
        if self._triggered:
            return
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        if waiters:
            self._sim.schedule_many(
                [(0.0, proc._resume, (value,)) for proc in waiters]
            )

    def reset(self) -> None:
        """Re-arm the signal so it can be waited on and triggered again."""
        self._triggered = False
        self._value = None

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            self._sim.schedule(0.0, proc._resume, self._value)
        else:
            self._waiters.append(proc)

    def _remove_waiter(self, proc: "Process") -> None:
        try:
            self._waiters.remove(proc)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover
        state = "triggered" if self._triggered else "armed"
        # id() only labels an anonymous Signal in debug repr output; the
        # string never reaches a digest, ordering decision, or file.
        return f"<Signal {self.name or id(self)} {state}>"


class Body:
    """Base of a picklable process body: subclasses define :meth:`send`.

    An interrupt ends the body, as ``except Interrupt: return`` ends a
    generator.
    """

    __slots__ = ()

    def throw(self, exc: BaseException) -> Any:
        raise StopIteration

    def close(self) -> None:
        pass


class Process:
    """A simulated process driving a body (see the module docstring).

    Create with ``Process(sim, body, name=...)``; the first step of the
    body runs at the current simulation time via a zero-delay event (so
    construction itself never executes model code).
    """

    __slots__ = (
        "sim",
        "name",
        "_gen",
        "_alive",
        "_pending_event",
        "_waiting_on",
        "_interrupt_pending",
    )

    def __init__(self, sim: Simulator, gen: Any, name: str = ""):
        if not hasattr(gen, "send"):
            raise TypeError(
                "Process expects a body or a generator (did you forget to "
                f"call the generator function?): got {gen!r}"
            )
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._alive = True
        self._pending_event: Optional[Event] = None
        self._waiting_on: Any = None
        self._interrupt_pending: Optional[Interrupt] = None
        # First resume: kick the body with None.
        self._pending_event = sim.schedule(0.0, self._resume, None)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True until the body finishes or raises."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the body at its wait point.

        Interrupting a dead process is a no-op.  The interrupt is delivered
        through a zero-delay event, preserving deterministic ordering.
        """
        if not self._alive:
            return
        self._detach_wait()
        self._interrupt_pending = Interrupt(cause)
        self._pending_event = self.sim.schedule(0.0, self._deliver_interrupt)

    def _deliver_interrupt(self) -> None:
        exc, self._interrupt_pending = self._interrupt_pending, None
        if exc is None or not self._alive:  # raced with termination
            return
        self._pending_event = None
        try:
            target = self._gen.throw(exc)
        except (StopIteration, Interrupt):
            self._terminate()
            return
        except BaseException:
            self._terminate()
            raise
        self._wait_on(target)

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        # The app-loop hot path: the dominant Timeout target is dispatched
        # inline (no _wait_on frame), exactly as _wait_on() would.
        if not self._alive:
            return
        self._pending_event = None
        self._waiting_on = None
        try:
            target = self._gen.send(value)
        except (StopIteration, Interrupt):
            # An Interrupt escaping the body is a clean kill.
            self._terminate()
            return
        except BaseException:
            self._terminate()
            raise
        if type(target) is Timeout:
            self._waiting_on = target
            self._pending_event = self.sim.schedule(target.delay, self._resume, None)
        else:
            self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Timeout):
            self._waiting_on = target
            self._pending_event = self.sim.schedule(target.delay, self._resume, None)
        elif isinstance(target, Signal):
            self._waiting_on = target
            target._add_waiter(self)
        else:
            err = SimulationError(
                f"process {self.name!r} yielded unsupported target {target!r}"
            )
            self._terminate()
            raise err

    def _detach_wait(self) -> None:
        """Withdraw from whatever we are currently waiting on."""
        if self._pending_event is not None:
            self.sim.cancel(self._pending_event)
            self._pending_event = None
        if isinstance(self._waiting_on, Signal):
            self._waiting_on._remove_waiter(self)
        self._waiting_on = None

    def _terminate(self) -> None:
        self._alive = False
        self._gen.close()

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self._alive else "dead"
        return f"<Process {self.name} {state}>"
