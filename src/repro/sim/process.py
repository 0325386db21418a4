"""Generator-based simulated processes.

The paper's simulator maps every node to a C++SIM thread.  Here each node
(and each protocol activity) is a Python generator driven by the kernel: the
generator *yields* a waitable and is resumed when the waitable completes.

Supported yield targets:

``Timeout(delay)``
    resume after ``delay`` simulated seconds,
``Process``
    resume when the target process terminates (join); the ``yield``
    expression evaluates to the process's return value,
``Signal``
    resume when the signal is triggered; the ``yield`` expression evaluates
    to the value passed to :meth:`Signal.trigger`.

A process may be interrupted with :meth:`Process.interrupt`, which raises
:class:`Interrupt` inside the generator at its current wait point.  This is
how node failures preempt application computation.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.sim.kernel import Event, SimulationError, Simulator

__all__ = ["Interrupt", "Process", "Signal", "Timeout"]

ProcessGen = Generator[Any, Any, Any]

#: set to a list by :func:`repro.sim.snapshot.loads` while a snapshot is
#: being unpickled; every restored :class:`Process` appends itself so the
#: loader can rebuild generators once the object graph is complete.
#: ``None`` outside a restore -- unpickling a Process any other way fails.
_restore_batch: Optional[list] = None


class Interrupt(Exception):
    """Raised inside a process generator when it is interrupted.

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


class Process:
    """A simulated process wrapping a generator.

    Create with ``Process(sim, gen_fn(args...), name=...)``; the first step
    of the generator runs at the current simulation time via a zero-delay
    event (so construction itself never executes model code).
    """

    __slots__ = (
        "sim",
        "name",
        "_gen",
        "_alive",
        "_result",
        "_failure",
        "_pending_event",
        "_waiting_on",
        "_joiners",
        "_interrupt_pending",
        "_gen_spec",
    )

    def __init__(
        self, sim: Simulator, gen: ProcessGen, name: str = "", gen_spec: Any = None
    ):
        if not hasattr(gen, "send"):
            raise TypeError(
                "Process expects a generator (did you forget to call the "
                f"generator function?): got {gen!r}"
            )
        self.sim = sim
        self.name = name or getattr(gen, "__name__", "process")
        self._gen = gen
        self._gen_spec = gen_spec
        self._alive = True
        self._result: Any = None
        self._failure: Optional[BaseException] = None
        self._pending_event: Optional[Event] = None
        self._waiting_on: Any = None
        self._joiners: list[Process] = []
        self._interrupt_pending: Optional[Interrupt] = None
        # First resume: kick the generator with None.
        self._pending_event = sim.schedule(0.0, self._resume, None)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True until the generator returns or raises."""
        return self._alive

    @property
    def result(self) -> Any:
        """Return value of the generator (``None`` until it terminates)."""
        return self._result

    @property
    def failure(self) -> Optional[BaseException]:
        """Exception that killed the process, if any."""
        return self._failure

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its wait point.

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
        self._advance(lambda: self._gen.throw(exc))

    # ------------------------------------------------------------------
    # engine
    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        # The app-loop hot path: inlined (no closure allocation, no
        # _advance/_wait_on frames) with the dominant Timeout target
        # dispatched directly.  Must stay behaviorally identical to
        # _advance() + _wait_on().
        if not self._alive:
            return
        self._pending_event = None
        self._waiting_on = None
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self._terminate(result=stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as a clean kill.
            self._terminate(result=None)
            return
        except BaseException as exc:
            self._terminate(failure=exc)
            raise
        if type(target) is Timeout:
            self._waiting_on = target
            self._pending_event = self.sim.schedule(target.delay, self._resume, None)
        else:
            self._wait_on(target)

    def _advance(self, step: Callable[[], Any]) -> None:
        try:
            target = step()
        except StopIteration as stop:
            self._terminate(result=stop.value)
            return
        except Interrupt:
            # Interrupt escaped the generator: treat as a clean kill.
            self._terminate(result=None)
            return
        except BaseException as exc:
            self._terminate(failure=exc)
            raise
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, Timeout):
            self._waiting_on = target
            self._pending_event = self.sim.schedule(target.delay, self._resume, None)
        elif isinstance(target, Signal):
            self._waiting_on = target
            target._add_waiter(self)
        elif isinstance(target, Process):
            if not target._alive:
                self._pending_event = self.sim.schedule(0.0, self._resume, target._result)
            else:
                self._waiting_on = target
                target._joiners.append(self)
        else:
            err = SimulationError(
                f"process {self.name!r} yielded unsupported target {target!r}"
            )
            self._terminate(failure=err)
            raise err

    def _detach_wait(self) -> None:
        """Withdraw from whatever we are currently waiting on."""
        if self._pending_event is not None:
            self.sim.cancel(self._pending_event)
            self._pending_event = None
        if isinstance(self._waiting_on, Signal):
            self._waiting_on._remove_waiter(self)
        elif isinstance(self._waiting_on, Process):
            try:
                self._waiting_on._joiners.remove(self)
            except ValueError:
                pass
        self._waiting_on = None

    def _terminate(self, result: Any = None, failure: Optional[BaseException] = None) -> None:
        self._alive = False
        self._result = result
        self._failure = failure
        self._gen.close()
        joiners, self._joiners = self._joiners, []
        if joiners:
            self.sim.schedule_many(
                [(0.0, proc._resume, (result,)) for proc in joiners]
            )

    # ------------------------------------------------------------------
    # snapshot support (see repro.sim.snapshot)
    # ------------------------------------------------------------------
    def __getstate__(self):
        if self._alive and self._gen_spec is None:
            raise SimulationError(
                f"process {self.name!r} was not built from a GenSpec and "
                "cannot be snapshotted while alive"
            )
        # Everything except the live generator, which is rebuilt on restore.
        return {
            "sim": self.sim,
            "name": self.name,
            "_alive": self._alive,
            "_result": self._result,
            "_failure": self._failure,
            "_pending_event": self._pending_event,
            "_waiting_on": self._waiting_on,
            "_joiners": self._joiners,
            "_interrupt_pending": self._interrupt_pending,
            "_gen_spec": self._gen_spec,
        }

    def __setstate__(self, state) -> None:
        if _restore_batch is None:
            raise SimulationError(
                "a Process can only be unpickled through repro.sim.snapshot"
            )
        for key, value in state.items():
            setattr(self, key, value)
        self._gen = None
        # Generator rebuild is deferred to snapshot.loads(): priming may
        # touch other restored objects, so the graph must be complete first.
        _restore_batch.append(self)

    def __repr__(self) -> str:  # pragma: no cover
        state = "alive" if self._alive else "dead"
        return f"<Process {self.name} {state}>"
