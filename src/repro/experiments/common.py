"""Shared experiment plumbing."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.reporting import format_series, format_table
from repro.cluster.federation import Federation
from repro.sim.trace import TraceLevel

__all__ = ["ExperimentResult", "run_federation"]


def run_federation(
    topology,
    application,
    timers,
    protocol: str = "hc3i",
    protocol_options: Optional[dict] = None,
    seed: int = 0,
    trace_level: TraceLevel = TraceLevel.NONE,
    app_factory=None,
    until: Optional[float] = None,
    failures: Sequence[tuple] = (),
) -> tuple:
    """Build and run one federation; returns ``(federation, results)``.

    ``failures`` is a schedule of ``(time, NodeId)`` crashes, injected
    after the federation has started and before the kernel runs.
    """
    fed = Federation(
        topology,
        application,
        timers,
        protocol=protocol,
        protocol_options=protocol_options,
        seed=seed,
        trace_level=trace_level,
        app_factory=app_factory,
    )
    fed.start()
    for at, victim in failures:
        fed.sim.schedule_at(at, fed.inject_failure, victim)
    results = fed.run(until=until)
    return fed, results


@dataclass
class ExperimentResult:
    """Uniform container every experiment returns.

    ``rows``/``headers`` hold table-style output; sweep experiments fill
    ``xs``/``series`` instead (or additionally).  ``paper`` records the
    reference values/claims from the publication so ``render()`` can show
    paper-vs-measured side by side.

    Everything here is plain data (scalars, strings, lists) so results
    pickle cleanly through the sweep cache and across worker processes.
    """

    name: str
    description: str
    headers: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    x_label: str = ""
    xs: list = field(default_factory=list)
    series: dict = field(default_factory=dict)
    paper: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def render(self) -> str:
        parts = [f"== {self.name} ==", self.description]
        if self.rows:
            parts.append(format_table(self.headers, self.rows))
        if self.series:
            parts.append(format_series(self.x_label, self.xs, self.series))
        if self.paper:
            parts.append("paper reference: " + ", ".join(
                f"{k}={v}" for k, v in self.paper.items()
            ))
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(str(p) for p in parts)
