"""SLURM batch backend: submit grid points as array jobs at a federation site.

Real federation sites do not hand out interactive shells -- they take
work through a batch scheduler.  This backend turns the sweep's
cache-missing grid points into SLURM *array jobs*: points submitted
close together are batched into one job directory under a shared spool,
each point's wire job (the same text the SSH backend pipes) written to
``tasks/<i>.json``, and one ``sbatch`` script whose array task ``i``
runs ``python -m repro.experiments.remote_worker`` with stdin/stdout
redirected to ``tasks/<i>.json`` / ``results/<i>.json``.
The spool directory must be visible to both the submitting machine and
the compute nodes (home directories usually are).

All of that machinery -- spooling, linger batching, the poll loop with
its unknown/completed grace counters, the requeue and failure taxonomy
-- lives in the scheduler-agnostic :class:`~repro.experiments.backends.
batch.BatchBackend` (see its module docstring for the contract); this
module contributes only SLURM's dialect: the ``sbatch`` script, the
``sacct``/``squeue`` conversation, and the state vocabulary.

The default transport, :class:`SlurmCliTransport`, shells out to
``sbatch``/``squeue``/``sacct``/``scancel``; ``$REPRO_SLURM_COMMAND``
prefixes every invocation (like ``$REPRO_SSH_COMMAND`` for the SSH
backend), which is how tests and CI substitute a stub scheduler without
a real SLURM installation.
"""

from __future__ import annotations

import logging
import os
import re
import shlex
from pathlib import Path
from typing import Optional

from repro.experiments.backends.batch import (
    BatchBackend,
    BatchTransport,
    CliTransport,
    expand_indices as _expand_indices,
    normalize_state as _normalize_state,
)
from repro.experiments.cache import default_cache_dir

__all__ = [
    "SlurmBackend",
    "SlurmCliTransport",
    "default_slurm_command",
    "default_spool_dir",
]

#: prefixes every scheduler command line (shlex-split), e.g. to substitute
#: a stub scheduler in tests/CI or to route through a login-node wrapper
_SLURM_COMMAND_ENV = "REPRO_SLURM_COMMAND"

#: overrides the default spool location
_SLURM_SPOOL_ENV = "REPRO_SLURM_SPOOL"

#: scheduler states that mean "the task can still produce a result"
ACTIVE_STATES = frozenset(
    {
        "PENDING",
        "RUNNING",
        "CONFIGURING",
        "COMPLETING",
        "SUSPENDED",
        "REQUEUED",
        "RESIZING",
        "STAGE_OUT",
    }
)

#: terminal states that mean "the task died without a result": retryable
LOST_STATES = frozenset(
    {
        "FAILED",
        "CANCELLED",
        "TIMEOUT",
        "NODE_FAIL",
        "OUT_OF_MEMORY",
        "PREEMPTED",
        "BOOT_FAIL",
        "DEADLINE",
        "REVOKED",
    }
)


def default_slurm_command() -> tuple:
    """The scheduler argv prefix: ``$REPRO_SLURM_COMMAND`` or nothing."""
    return tuple(shlex.split(os.environ.get(_SLURM_COMMAND_ENV) or ""))


def default_spool_dir() -> Path:
    """``$REPRO_SLURM_SPOOL`` or ``<cache dir>/slurm-spool`` (shared $HOME)."""
    return Path(os.environ.get(_SLURM_SPOOL_ENV) or default_cache_dir() / "slurm-spool")


class SlurmCliTransport(CliTransport):
    """The real thing: shell out to ``sbatch``/``squeue``/``sacct``/``scancel``."""

    host = "slurm"
    verb = "sbatch"

    def __init__(self, command_prefix: Optional[tuple] = None, timeout: float = 60.0) -> None:
        super().__init__(
            command_prefix if command_prefix is not None else default_slurm_command(),
            timeout,
        )

    def _submit_args(self, spec: Path) -> tuple:
        return ("sbatch", "--parsable", str(spec))

    def _parse_job_id(self, stdout: str) -> str:
        return stdout.split(";")[0]  # --parsable prints "jobid" or "jobid;cluster"

    def _cancel_args(self, target: str) -> tuple:
        return ("scancel", target)

    def _cancel_orphan(self, spec: Path) -> None:
        try:
            text = Path(spec).read_text(encoding="utf-8")
        except OSError:
            return
        match = re.search(r"^#SBATCH --job-name=(\S+)", text, re.MULTILINE)
        if match is not None:
            self._run_quiet("scancel", "--name", match.group(1))

    def poll(self, job_id: str) -> dict:
        states: dict = {}
        # sacct first (terminal states), squeue second so live queue state
        # wins for tasks both can see
        out = self._run_quiet(
            "sacct", "-n", "-P", "-X", "-j", job_id, "-o", "JobID,State"
        )
        if out is not None:
            states.update(_parse_sacct(out, job_id))
        out = self._run_quiet("squeue", "-h", "-j", job_id, "-o", "%K|%T")
        if out is not None:
            states.update(_parse_squeue(out))
        return states


_log = logging.getLogger(__name__)

#: tokens already warned about -- scheduler output repeats every poll, the
#: warning must not
_warned_tokens: set = set()


def _expand_quiet(token: str) -> list:
    """Poll-path wrapper around the (loud) :func:`expand_indices`.

    The poll loop must never raise, but an unrecognized squeue/sacct
    token must not be *silent* either: it is logged once, and the empty
    expansion means "no state learned" -- the affected tasks keep their
    unknown-grace budget instead of being mis-marked.
    """
    try:
        return _expand_indices(token)
    except ValueError as exc:
        if token not in _warned_tokens:
            _warned_tokens.add(token)
            _log.warning("ignoring scheduler output: %s", exc)
        return []


def _learn(states: dict, token: str, state: str) -> None:
    """Record one scheduler line: ``state`` for every task index in ``token``."""
    normalized = _normalize_state(state)  # "CANCELLED by 0", "COMPLETED+"
    if normalized:
        for idx in _expand_quiet(token):
            states[idx] = normalized


def _parse_sacct(out: str, job_id: str) -> dict:
    """``sacct -n -P -X -o JobID,State`` lines -> {array index: STATE}."""
    states: dict = {}
    pattern = re.compile(rf"^{re.escape(job_id)}_(\d+|\[[\d,\-:%]+\])$")
    for line in out.splitlines():
        jid, _, state = line.strip().partition("|")
        match = pattern.match(jid)
        if not match or not state:
            continue
        _learn(states, match.group(1), state)
    return states


def _parse_squeue(out: str) -> dict:
    """``squeue -h -o "%K|%T"`` lines -> {array index: STATE}."""
    states: dict = {}
    for line in out.splitlines():
        token, _, state = line.strip().partition("|")
        if token and state:
            _learn(states, token, state)
    return states


class SlurmBackend(BatchBackend):
    """Batch cache-missing grid points into SLURM array jobs."""

    name = "slurm"
    task_noun = "array task"
    index_var = "SLURM_ARRAY_TASK_ID"
    active_states = ACTIVE_STATES
    lost_states = LOST_STATES
    completed_states = frozenset({"COMPLETED"})

    def __init__(
        self,
        transport: Optional[BatchTransport] = None,
        spool: Optional[Path] = None,
        sbatch_options: tuple = (),
        **substrate,
    ) -> None:
        """``substrate`` is :class:`BatchBackend`'s keywords, passed through."""
        super().__init__(
            transport if transport is not None else SlurmCliTransport(),
            spool if spool is not None else default_spool_dir(),
            **substrate,
        )
        self.sbatch_options = tuple(sbatch_options)

    # -- BatchBackend hooks ----------------------------------------------

    def _write_submission(self, job_dir: Path, n_tasks: int) -> Path:
        script = job_dir / "job.sh"
        script.write_text(self._render_script(job_dir, n_tasks), encoding="utf-8")
        return script

    def _cancel_target(self, job_id: str, index: int) -> str:
        return f"{job_id}_{index}"

    def _render_script(self, job_dir: Path, n_tasks: int) -> str:
        lines = [
            "#!/bin/bash",
            # unique name: lets a submission whose id was lost (sbatch
            # timeout) still be cancelled via `scancel --name`
            f"#SBATCH --job-name=hc3i-{job_dir.parent.name}-{job_dir.name}",
            f"#SBATCH --array=0-{n_tasks - 1}",
            f"#SBATCH --output={job_dir / 'logs'}/%a.log",
        ]
        lines.extend(f"#SBATCH {opt}" for opt in self.sbatch_options)
        return "\n".join(lines) + "\n" + self._worker_script(job_dir)
