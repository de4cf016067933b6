"""Critical-path attribution over the causal span DAG.

Given a traced run, "where did the time go?" means: walk backward from the
makespan-defining span and, at every instant, attribute the elapsed virtual
time to whatever was *last* on the causal chain — the gradient kernel that
was computing, the NIC transfer in flight, the SSP gate the worker sat in,
the retry backoff it burned.  This is the compute/communication/waiting
breakdown Dünner et al. use to explain distributed ML on Spark, computed
here from the span DAG the transport's ``trace_ctx`` threading connects.

Attribution categories
----------------------

- ``compute`` — server CPU service slots (``cat="cpu"``) and task-span
  residual (executor-local math is charged to clocks, not sub-spanned);
- ``network`` — NIC send/receive reservations;
- ``queueing`` — client-op and stage residual: time the causal chain was
  blocked on responses, scheduling, or CPU-queue waits not covered by a
  child span;
- ``staleness-wait`` — SSP gate waits;
- ``retry-backoff`` — failure-detection timeouts and retry penalties;
- ``idle`` — gaps between root spans (only in whole-run walks);
- ``other`` — anything uncategorized (should stay ~0).

The walk partitions the analyzed interval *exactly*: within one span, time
covered by a child belongs to the child's walk and the rest to the span's
own category, recursively — so the categories sum to the root span's
duration by construction (the acceptance bar for the stage-makespan
criterion).  Overlapping children are resolved latest-end-first: a child
whose interval is covered by later critical work is skipped, which is
precisely the "last thing blocking completion" rule.
"""

from __future__ import annotations

from collections import defaultdict

#: Category display order for reports.
CATEGORIES = ("compute", "network", "queueing", "staleness-wait",
              "retry-backoff", "idle", "other")


def categorize(span):
    """The attribution category of *span*'s own (residual) time."""
    if span.op == "retry-backoff":
        return "retry-backoff"
    if span.op == "staleness-wait":
        return "staleness-wait"
    if span.cat in ("nic-send", "nic-recv"):
        return "network"
    if span.cat in ("cpu", "task"):
        return "compute"
    if span.cat in ("op", "stage"):
        return "queueing"
    return "other"


class CriticalPathResult:
    """Per-category virtual seconds attributed along one walk."""

    def __init__(self, categories, total, terminal=None):
        #: ``{category: seconds}`` (every key of :data:`CATEGORIES` present).
        self.categories = {cat: categories.get(cat, 0.0)
                           for cat in CATEGORIES}
        #: The analyzed interval's length; the categories sum to it.
        self.total = float(total)
        #: The makespan-defining span the walk started from (run walks).
        self.terminal = terminal

    def fraction(self, category):
        return (self.categories.get(category, 0.0) / self.total
                if self.total else 0.0)

    def render(self, title="critical path"):
        lines = ["== %s ==" % title,
                 "total attributed: %.6f virtual seconds" % self.total]
        for cat in CATEGORIES:
            seconds = self.categories[cat]
            if seconds <= 0 and cat in ("idle", "other"):
                continue
            lines.append("  %-15s %12.6f s  %5.1f%%"
                         % (cat, seconds, 100.0 * self.fraction(cat)))
        return "\n".join(lines)


def _index_children(tracer):
    """``{parent_id: [closed children, latest end first]}`` (None = roots)."""
    children = defaultdict(list)
    for span in tracer.spans:
        if span.end is None:
            continue
        children[span.parent_id].append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.end, s.start), reverse=True)
    return children


def _walk(span, hi, children, acc):
    """Attribute ``[span.start, min(hi, span.end)]`` between *span* and its
    children; within-span gaps go to *span*'s own category."""
    t = min(hi, span.end)
    own = categorize(span)
    for child in children.get(span.span_id, ()):
        if child.end > t:
            # Covered by later critical work we already walked through.
            continue
        if child.end <= span.start:
            break
        if t > child.end:
            acc[own] += t - child.end
        _walk(child, child.end, children, acc)
        t = max(child.start, span.start)
        if t <= span.start:
            break
    if t > span.start:
        acc[own] += t - span.start


def from_span(tracer, span, children=None):
    """Critical-path breakdown of one (closed) span's interval.

    The categories sum to ``span.duration`` exactly — the walk partitions
    the interval.
    """
    if children is None:
        children = _index_children(tracer)
    acc = defaultdict(float)
    _walk(span, span.end, children, acc)
    return CriticalPathResult(acc, span.duration, terminal=span)


def analyze(tracer):
    """Whole-run breakdown: walk backward from the latest-ending root.

    Root spans (no causal parent) partition the run; gaps between them —
    times when nothing traced was on the chain — are ``idle``.  The
    categories sum to the latest root's end time (the traced makespan).
    """
    children = _index_children(tracer)
    roots = children.get(None, [])
    acc = defaultdict(float)
    if not roots:
        return CriticalPathResult(acc, 0.0)
    terminal = roots[0]
    t = terminal.end
    for root in roots:
        if root.end > t:
            continue
        if t > root.end:
            acc["idle"] += t - root.end
        _walk(root, root.end, children, acc)
        t = root.start
        if t <= 0.0:
            break
    if t > 0.0:
        acc["idle"] += t
    return CriticalPathResult(acc, terminal.end, terminal=terminal)


def stage_breakdowns(tracer):
    """``[(stage span, CriticalPathResult)]`` for every closed stage span.

    Each result's categories sum to that stage's makespan exactly — the
    per-stage form of the whole-run walk, used by the benchmark
    harness's consistency check.
    """
    children = _index_children(tracer)
    out = []
    for span in tracer.spans:
        if span.cat == "stage" and span.end is not None:
            out.append((span, from_span(tracer, span, children=children)))
    return out
