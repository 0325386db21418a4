"""Paper experiments: one module per table/figure of §5.

Every experiment is declared as three pure pieces -- a parameter ``grid``,
a picklable per-point function, and a ``reduce`` step that assembles the
paper's table/series -- registered in
:mod:`repro.experiments.registry`.  The protocol comparisons and
ablations share one grid/point/reduce and are rows of the table in
:mod:`repro.experiments.studies`.  The sweep engine
(:mod:`repro.experiments.runner`) runs grid points inline or fans them
out over a local process pool (:mod:`repro.experiments.backends`) and
memoizes them in a content-addressed cache (:mod:`repro.experiments.cache`).

The registry is the only entry point: ``run_experiment(name,
overrides).result`` from code, ``repro sweep <name>`` from the shell
(``docs/sweeps.md`` is the user guide).  All scaled experiments accept
``nodes`` and ``total_time`` so tests can exercise them at reduced
scale; defaults reproduce the paper (100 nodes per cluster, 10-hour
application).

Importing this package imports no experiment module; the registry loads
them on first use.
"""
