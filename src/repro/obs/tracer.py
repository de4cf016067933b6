"""Structured tracing over the simulated cluster's virtual clocks.

A :class:`Span` is one operation on one node with a virtual start/end time:
a client-side PS op (pull/push/kernel), a server CPU service slot, a NIC
send/receive, a sparklite task or stage.  Spans nest: the tracer keeps a
per-node stack, so a pull issued inside a task becomes the task span's
child, exactly as a thread-local would do in a real system.

Cross-node causality: instrumentation that knows its causal parent lives on
*another* node passes ``parent_id`` explicitly (the scheduler parents task
spans to the stage span on the driver; the PS transport threads a
``trace_ctx`` through typed messages so server CPU slots and NIC bookings
parent to the client op that caused them).  Every span also carries a
``trace_id`` — the span id of its root ancestor — so all work caused by one
logical operation shares one id regardless of which nodes served it.

Timestamps come from the :class:`~repro.cluster.simclock.SimClock` (or are
passed explicitly by instrumentation that already knows its reserved
interval, e.g. a NIC booking).  The tracer only ever *reads* clocks — it
never advances them — and never selects a code path: the PS transport's
phased schedule and the server fast lane record the same spans the
interleaved reference does.  So enabling tracing cannot perturb the cost
model or the host-side path: a traced run is the untraced run plus span
records, byte-identical in every result.

When disabled (the default), every entry point returns immediately: no
span objects are allocated and ``span()`` hands back a shared no-op
context manager, so instrumented hot paths cost one attribute check.
"""

from __future__ import annotations

import itertools


class Span:
    """One traced operation: a named interval on one node's timeline."""

    __slots__ = ("span_id", "parent_id", "trace_id", "node", "op", "cat",
                 "start", "end", "args")

    def __init__(self, span_id, parent_id, node, op, cat, start, end=None,
                 args=None, trace_id=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = span_id if trace_id is None else trace_id
        self.node = node
        self.op = op
        self.cat = cat
        self.start = float(start)
        self.end = None if end is None else float(end)
        self.args = args or {}

    @property
    def duration(self):
        """Virtual seconds covered (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def __repr__(self):
        return "Span(%s %r on %s [%.6f, %s))" % (
            self.cat, self.op, self.node, self.start,
            "..." if self.end is None else "%.6f" % self.end,
        )


class _NullSpan:
    """Shared do-nothing context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _OpenSpan:
    """Context manager that closes *span* at the node's clock on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer, span):
        self._tracer = tracer
        self._span = span

    def __enter__(self):
        return self._span

    def __exit__(self, *exc):
        self._tracer._finish(self._span)
        return False


class Tracer:
    """Collects spans against a set of virtual clocks."""

    def __init__(self, clock, enabled=False):
        self.clock = clock
        self.enabled = bool(enabled)
        self.spans = []
        self._ids = itertools.count()
        self._stacks = {}
        #: span_id -> trace_id of every span seen (open or recorded), so an
        #: explicit cross-node ``parent_id`` can inherit its trace.
        self._trace_ids = {}

    # -- lifecycle ---------------------------------------------------------

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def clear(self):
        """Drop every recorded span (open stacks included)."""
        self.spans = []
        self._stacks.clear()
        self._trace_ids.clear()

    def __len__(self):
        return len(self.spans)

    # -- recording ---------------------------------------------------------

    def _lineage(self, node, parent_id):
        """Resolve ``(parent_id, trace_id)`` for a new span on *node*.

        An explicit *parent_id* (cross-node causality) wins; otherwise the
        parent is the innermost open span on *node*'s stack.  The trace id
        is inherited from the parent (a root span starts its own trace).
        """
        if parent_id is None:
            stack = self._stacks.get(node)
            if stack:
                parent = stack[-1]
                return parent.span_id, parent.trace_id
            return None, None
        return parent_id, self._trace_ids.get(parent_id)

    def span(self, node, op, cat="op", parent_id=None, **args):
        """Open a span on *node*; closes at the node's clock on ``__exit__``.

        Usage: ``with tracer.span("executor-0", "pull", matrix_id=3): ...``.
        Nested ``span()`` calls on the same node become children; an
        explicit *parent_id* parents across nodes (e.g. executor task spans
        under the driver's stage span).
        """
        if not self.enabled:
            return _NULL_SPAN
        resolved_parent, trace_id = self._lineage(node, parent_id)
        sp = Span(next(self._ids), resolved_parent, node, op, cat,
                  self.clock.now(node), args=args, trace_id=trace_id)
        self._trace_ids[sp.span_id] = sp.trace_id
        self._stacks.setdefault(node, []).append(sp)
        return _OpenSpan(self, sp)

    def _finish(self, span):
        span.end = self.clock.now(span.node)
        stack = self._stacks.get(span.node)
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def record(self, node, op, start, end, cat="op", parent_id=None, **args):
        """Record a completed span with explicit virtual times.

        Used by instrumentation that already knows its reserved interval
        (NIC bookings, server CPU service slots) — those intervals live on
        shared-resource timelines, not on the caller's clock.  Without an
        explicit *parent_id* the span is parented to whatever span is
        currently open on *node*; with one (the transport's ``trace_ctx``)
        it attaches to the causing span wherever that lives.
        """
        if not self.enabled:
            return None
        resolved_parent, trace_id = self._lineage(node, parent_id)
        sp = Span(next(self._ids), resolved_parent, node, op, cat, start,
                  end, args=args, trace_id=trace_id)
        self._trace_ids[sp.span_id] = sp.trace_id
        self.spans.append(sp)
        return sp

    def current(self, node):
        """The innermost open span on *node* (None when nothing is open).

        Instrumentation deeper in the stack uses this to enrich the
        enclosing op span (accumulated bytes, server fan-out) without
        threading span handles through every call.
        """
        stack = self._stacks.get(node)
        return stack[-1] if stack else None

    # -- queries -----------------------------------------------------------

    def spans_for(self, node=None, cat=None, op=None, trace_id=None):
        """Recorded spans filtered by node / category / op name / trace."""
        out = self.spans
        if node is not None:
            out = [s for s in out if s.node == node]
        if cat is not None:
            out = [s for s in out if s.cat == cat]
        if op is not None:
            out = [s for s in out if s.op == op]
        if trace_id is not None:
            out = [s for s in out if s.trace_id == trace_id]
        return list(out)

    def children_of(self, span):
        """Direct children of *span*, in recording order."""
        return [s for s in self.spans if s.parent_id == span.span_id]
