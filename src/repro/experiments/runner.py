"""Shared experiment plumbing: context factories and run configs."""

from __future__ import annotations

from dataclasses import replace

from repro.config import ClusterConfig, ElasticitySpec, FailureConfig, \
    NodeSpec
from repro.core.context import PS2Context


def make_context(node_flops=None, task_failure_prob=None, **fields):
    """A fresh PS2 context on a fresh simulated cluster.

    *fields* are :class:`repro.config.ClusterConfig` fields, forwarded as
    given; the schema and its defaults live there alone.  On top of them
    this factory keeps three shortcuts:

    - ``node_flops`` derates the simulated CPUs (the ``flops`` of
      ``node``, default or given).  The datasets here are about four
      orders of magnitude smaller than the paper's, but per-task fixed
      overheads don't shrink with the data; experiments whose *shape*
      depends on per-worker compute being non-trivial (the Figure 13(a)
      scalability sweep) derate the CPUs
      (:data:`repro.costs.FIG13_NODE_FLOPS`) to restore the paper's
      compute-to-overhead ratio.
    - ``task_failure_prob`` sets the Bernoulli task-failure rate of
      ``failures``, default or given (Figure 13(c)).
    - ``elasticity="auto"`` stands for the default-bounded
      :class:`repro.config.ElasticitySpec`.

    Every system under comparison gets its own context (its own clocks and
    metrics) over identically configured hardware — the controlled-variable
    setup the paper's comparisons rely on.
    """
    if node_flops is not None:
        fields["node"] = replace(fields.get("node", NodeSpec()),
                                 flops=node_flops)
    if task_failure_prob is not None:
        fields["failures"] = replace(fields.get("failures", FailureConfig()),
                                     task_failure_prob=task_failure_prob)
    if isinstance(fields.get("elasticity"), str):
        fields["elasticity"] = ElasticitySpec(mode=fields["elasticity"])
    return PS2Context(config=ClusterConfig(**fields))
