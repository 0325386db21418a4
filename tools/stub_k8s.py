#!/usr/bin/env python3
"""A miniature kubectl for tests and CI: no cluster, no daemon, same CLI shape.

Point ``$REPRO_KUBECTL_COMMAND`` at this script (plus an interpreter) and
the sweep engine's :class:`K8sCliTransport` drives it exactly as it would
a real control plane::

    export REPRO_K8S_STUB_STATE=/tmp/stub-k8s.json
    export REPRO_KUBECTL_COMMAND="python tools/stub_k8s.py"
    repro sweep table1 --backend k8s --spool /tmp/spool

Implemented subcommands (the subset the transport uses):

* ``create -f <manifest.json> -o name`` -- parses the indexed-completion
  Job manifest and runs every completion index *synchronously* via the
  manifest's container command with ``JOB_COMPLETION_INDEX`` set, then
  prints ``job.batch/<name>``.  Each index's exit status becomes its pod
  phase (``Succeeded``/``Failed``).
* ``get pods -l job-name=<name> -o json`` -- prints a pod list whose
  items carry the completion-index label and recorded phases.
* ``delete job <name> ...`` -- forgets the job (its pods vanish from
  subsequent ``get`` calls).

Job states persist in the JSON file named by ``$REPRO_K8S_STUB_STATE``
so that separate ``create``/``get`` invocations (separate processes)
share them.  Fault injection: set ``$REPRO_K8S_STUB_KILL`` to a comma
list of ``jobseq:index`` pairs (1-based job sequence numbers as this
stub assigns them) and those pods are *not* executed -- they are
recorded phase ``Failed`` / reason ``Evicted`` with no result file,
exactly what a node-pressure eviction mid-sweep looks like to the
backend.  The requeued copy (a later job, a new sequence number) no
longer matches and recomputes the point from zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_INDEX_KEY = "batch.kubernetes.io/job-completion-index"


def _state_path() -> str:
    path = os.environ.get("REPRO_K8S_STUB_STATE")
    if not path:
        print("stub_k8s: REPRO_K8S_STUB_STATE is not set", file=sys.stderr)
        sys.exit(2)
    return path


def _load() -> dict:
    try:
        with open(_state_path(), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return {"next_seq": 1, "jobs": {}}


def _save(state: dict) -> None:
    with open(_state_path(), "w", encoding="utf-8") as fh:
        json.dump(state, fh)


def _killed_pods() -> set:
    pairs = set()
    for chunk in os.environ.get("REPRO_K8S_STUB_KILL", "").split(","):
        chunk = chunk.strip()
        if chunk:
            pairs.add(chunk)
    return pairs


def _flag_value(argv: list, *flags: str) -> str:
    for flag in flags:
        if flag in argv:
            index = argv.index(flag)
            if index + 1 < len(argv):
                return argv[index + 1]
    return ""


def _create(argv: list) -> int:
    spec = _flag_value(argv, "-f", "--filename")
    if not spec:
        print("create: missing -f <manifest>", file=sys.stderr)
        return 1
    try:
        manifest = json.loads(open(spec, encoding="utf-8").read())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"create: cannot read {spec}: {exc}", file=sys.stderr)
        return 1
    try:
        name = manifest["metadata"]["name"]
        completions = int(manifest["spec"]["completions"])
        command = manifest["spec"]["template"]["spec"]["containers"][0]["command"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        print(f"create: malformed Job manifest {spec}: {exc}", file=sys.stderr)
        return 1
    state = _load()
    if name in state["jobs"]:
        print(f'create: jobs.batch "{name}" already exists', file=sys.stderr)
        return 1
    seq = state["next_seq"]
    state["next_seq"] += 1
    killed = _killed_pods()
    pods = {}
    for i in range(completions):
        if f"{seq}:{i}" in killed:
            pods[str(i)] = {"phase": "Failed", "reason": "Evicted"}
            continue
        env = dict(os.environ, JOB_COMPLETION_INDEX=str(i))
        rc = subprocess.call(list(command), env=env)
        pods[str(i)] = {"phase": "Succeeded" if rc == 0 else "Failed"}
    state["jobs"][name] = {"seq": seq, "pods": pods}
    _save(state)
    print(f"job.batch/{name}")
    return 0


def _get(argv: list) -> int:
    if not argv or argv[0] != "pods":
        print(f"get: unsupported resource {argv[:1]!r}", file=sys.stderr)
        return 1
    selector = _flag_value(argv, "-l", "--selector")
    _, _, name = selector.partition("job-name=")
    job = _load()["jobs"].get(name)
    items = []
    if job is not None:
        for index, pod in sorted(job["pods"].items(), key=lambda kv: int(kv[0])):
            status = {"phase": pod["phase"]}
            if pod.get("reason"):
                status["reason"] = pod["reason"]
            items.append(
                {
                    "metadata": {
                        "name": f"{name}-{index}",
                        "labels": {"job-name": name, _INDEX_KEY: index},
                    },
                    "status": status,
                }
            )
    json.dump({"apiVersion": "v1", "kind": "List", "items": items}, sys.stdout)
    print()
    return 0


def _delete(argv: list) -> int:
    if argv[:1] != ["job"]:
        return 0
    name = argv[1] if len(argv) > 1 else ""
    state = _load()
    if state["jobs"].pop(name, None) is not None:
        _save(state)
    return 0


def main(argv: list) -> int:
    if not argv:
        print("stub_k8s: expected create/get/delete", file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]
    if command == "create":
        return _create(rest)
    if command == "get":
        return _get(rest)
    if command == "delete":
        return _delete(rest)
    print(f"stub_k8s: unknown command {command!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
