"""Dimension Co-located Vector — the paper's core abstraction (Section 4).

A DCV is a distributed vector stored on the parameter servers.  It is
column-partitioned, so row access (pull/push) parallelizes over servers, and
DCVs created from one another via :meth:`derive` are **dimension co-located**:
equal index ranges live on the same server, making element-wise multi-vector
operators pure server-side computation with only scalars on the wire.

Operator sets follow Table 1 of the paper:

=================  ====================================================
row access          ``pull``, ``push``, ``add``, ``sum``, ``nnz``, ``norm2``
column access       ``axpy``/``iaxpy``, ``dot``, ``copy``, ``sub``, ``add_vec``,
                    ``mul``, ``div`` (+ in-place forms, ``scale``, ``zip``)
creation            ``dense``, ``sparse``, ``derive`` (alias ``duplicate``)
=================  ====================================================

Column-access operators between DCVs that are *not* co-located are legal but
slow: the simulator realigns one operand across servers first, charging the
cross-server traffic — the "inefficient writing" of Figure 4.  Only where no
realignment can stand in — ``zip`` and an ``out=`` target — is a
non-co-located DCV refused, with
:class:`~repro.common.errors.NotColocatedError`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import DimensionMismatchError, NotColocatedError
from repro.core import kernels
from repro.core.zipop import DCVZip


class DCV:
    """A distributed model vector living on the parameter servers."""

    def __init__(self, ps2, pool, matrix_id, row, name=None, is_sparse=False):
        self.ps2 = ps2
        self.pool = pool
        self.matrix_id = matrix_id
        self.row = int(row)
        self.name = name or "%s[%d]" % (pool.name, row)
        self.is_sparse = is_sparse

    # -- identity ----------------------------------------------------------

    @property
    def dim(self):
        return self.pool.dim

    @property
    def layout(self):
        return self.pool.layout

    def operand(self):
        """The ``(matrix_id, row)`` pair servers address this DCV by."""
        return (self.matrix_id, self.row)

    def is_colocated_with(self, other):
        """True when column ops with *other* need no cross-server traffic."""
        return self.pool is other.pool or self.layout.same_layout(other.layout)

    def __repr__(self):
        return "DCV(%s, dim=%d)" % (self.name, self.dim)

    # -- creation ops --------------------------------------------------------

    @staticmethod
    def dense(ps2, dim, rows=10, name=None):
        """Allocate a fresh pool of *rows* co-located slots; return row 0."""
        return ps2.dense(dim, rows=rows, name=name)

    @staticmethod
    def sparse(ps2, dim, rows=10, name=None):
        """Like :meth:`dense`, flagged sparse (favors index-based access)."""
        return ps2.sparse(dim, rows=rows, name=name)

    def derive(self, name=None):
        """A new DCV co-located with this one (same pool, same layout)."""
        matrix_id, row = self.pool.acquire()
        return DCV(self.ps2, self.pool, matrix_id, row, name=name,
                   is_sparse=self.is_sparse)

    #: Paper Figure 6 uses ``duplicate`` as a synonym for ``derive``.
    duplicate = derive

    def free(self):
        """Return this DCV's slot to its pool (contents become undefined)."""
        self.pool.release(self.operand())

    # -- plumbing -------------------------------------------------------------

    def _client(self, task_ctx=None):
        node = task_ctx.executor if task_ctx is not None else self.ps2.coordinator
        return self.ps2.client_for(node)

    def _check_dim(self, other):
        if self.dim != other.dim:
            raise DimensionMismatchError(
                "dim %d vs %d" % (self.dim, other.dim)
            )

    def _aligned_operand(self, other, task_ctx=None):
        """Return an operand co-located with *self* for *other*.

        Fast path: already co-located.  Slow path: realign *other* into a
        temporary derived DCV, shipping every misplaced range across servers
        (charged under the ``realign`` tag).  The caller must release the
        temporary via the returned cleanup flag.
        """
        self._check_dim(other)
        if self.is_colocated_with(other):
            return other, False
        temp = self.derive(name="%s.realigned" % other.name)
        self.ps2.realign(other, temp)
        return temp, True

    # -- row access ops --------------------------------------------------------

    def pull(self, indices=None, task_ctx=None):
        """Fetch the vector (or selected *indices*) to the calling node.

        Inside a sparklite task pass the :class:`TaskContext` so traffic is
        charged to that executor; without it the coordinator pulls.
        """
        return self._client(task_ctx).pull_row(self.matrix_id, self.row, indices)

    def push(self, values, indices=None, task_ctx=None):
        """Overwrite the vector (or selected *indices*) with *values*."""
        self._client(task_ctx).push_assign(self.matrix_id, self.row,
                                           np.asarray(values, dtype=float),
                                           indices)

    def add(self, values, indices=None, task_ctx=None, defer=True):
        """Accumulate *values* into the vector (the push-add of Figure 3).

        Inside a task with ``defer=True`` (the default) the push runs only
        when the task commits — exactly-once semantics under task retry.
        """
        client = self._client(task_ctx)
        values = np.array(values, dtype=float, copy=True)
        indices = None if indices is None else np.array(indices, copy=True)
        if task_ctx is not None and defer:
            task_ctx.defer(
                lambda: client.push_add(self.matrix_id, self.row, values, indices)
            )
        else:
            client.push_add(self.matrix_id, self.row, values, indices)

    def sum(self, task_ctx=None):
        """Sum of all elements (computed server-side, scalars on the wire)."""
        return self._client(task_ctx).aggregate_row(self.matrix_id, self.row, "sum")

    def nnz(self, task_ctx=None):
        """Number of non-zero elements (server-side)."""
        return int(self._client(task_ctx).aggregate_row(self.matrix_id, self.row,
                                                        "nnz"))

    def norm2(self, task_ctx=None):
        """Euclidean norm (server-side partial sums of squares)."""
        return math.sqrt(
            self._client(task_ctx).aggregate_row(self.matrix_id, self.row, "sumsq")
        )

    # -- column access ops -------------------------------------------------------

    def _execute(self, kernel, operands, args=None, task_ctx=None,
                 n_response_scalars=1, wait_response=True):
        return self._client(task_ctx).execute(
            kernel,
            operands,
            args=args,
            n_response_scalars=n_response_scalars,
            wait_response=wait_response,
        )

    def dot(self, other, task_ctx=None):
        """Dot product with *other*, computed where the data lives."""
        operand, cleanup = self._aligned_operand(other, task_ctx)
        partials = self._execute(
            kernels.dot_kernel, [self.operand(), operand.operand()],
            task_ctx=task_ctx,
        )
        if cleanup:
            operand.free()
        return float(sum(partials))

    def iaxpy(self, other, alpha, task_ctx=None):
        """In-place ``self += alpha * other`` (Figure 6's update step)."""
        operand, cleanup = self._aligned_operand(other, task_ctx)
        self._execute(
            kernels.axpy_kernel, [self.operand(), operand.operand()],
            args={"alpha": float(alpha)}, task_ctx=task_ctx,
            wait_response=False,
        )
        if cleanup:
            operand.free()
        return self

    #: Table 1 names the operator ``axpy``; it is in-place on the receiver.
    axpy = iaxpy

    def copy(self, out=None, task_ctx=None):
        """Server-side copy into *out* (a new derived DCV by default)."""
        if out is None:
            out = self.derive(name="%s.copy" % self.name)
        operand, cleanup = out._aligned_operand(self, task_ctx)
        self._execute(
            kernels.copy_kernel, [out.operand(), operand.operand()],
            task_ctx=task_ctx, wait_response=False,
        )
        if cleanup:
            operand.free()
        return out

    def _binary(self, other, op, out, task_ctx):
        operand, cleanup = self._aligned_operand(other, task_ctx)
        if out is None:
            out = self.derive(name="%s.%s" % (self.name, op))
        elif not out.is_colocated_with(self):
            raise NotColocatedError("output DCV must be co-located")
        self._execute(
            kernels.binary_kernel,
            [out.operand(), self.operand(), operand.operand()],
            args={"op": op}, task_ctx=task_ctx, wait_response=False,
        )
        if cleanup:
            operand.free()
        return out

    def add_vec(self, other, out=None, task_ctx=None):
        """Element-wise ``self + other`` into *out* (new derived DCV if None)."""
        return self._binary(other, "add", out, task_ctx)

    def sub(self, other, out=None, task_ctx=None):
        """Element-wise ``self - other``."""
        return self._binary(other, "sub", out, task_ctx)

    def mul(self, other, out=None, task_ctx=None):
        """Element-wise ``self * other``."""
        return self._binary(other, "mul", out, task_ctx)

    def div(self, other, out=None, task_ctx=None):
        """Element-wise ``self / other``."""
        return self._binary(other, "div", out, task_ctx)

    def _inplace_binary(self, other, op, task_ctx):
        operand, cleanup = self._aligned_operand(other, task_ctx)
        self._execute(
            kernels.inplace_binary_kernel,
            [self.operand(), operand.operand()],
            args={"op": op}, task_ctx=task_ctx, wait_response=False,
        )
        if cleanup:
            operand.free()
        return self

    def iadd(self, other, task_ctx=None):
        """In-place ``self += other``."""
        return self._inplace_binary(other, "add", task_ctx)

    def isub(self, other, task_ctx=None):
        """In-place ``self -= other``."""
        return self._inplace_binary(other, "sub", task_ctx)

    def imul(self, other, task_ctx=None):
        """In-place ``self *= other``."""
        return self._inplace_binary(other, "mul", task_ctx)

    def idiv(self, other, task_ctx=None):
        """In-place ``self /= other``."""
        return self._inplace_binary(other, "div", task_ctx)

    def scale(self, alpha, task_ctx=None):
        """In-place ``self *= alpha``."""
        self._execute(kernels.scale_kernel, [self.operand()],
                      args={"alpha": float(alpha)}, task_ctx=task_ctx,
                      wait_response=False)
        return self

    def shift(self, delta, task_ctx=None):
        """In-place ``self += delta`` (scalar broadcast)."""
        self._execute(kernels.shift_kernel, [self.operand()],
                      args={"delta": float(delta)}, task_ctx=task_ctx,
                      wait_response=False)
        return self

    # -- fills -------------------------------------------------------------------

    def fill(self, value, task_ctx=None):
        """Set every element to *value* (returns self, as in Figure 3)."""
        self._client(task_ctx).fill_row(self.matrix_id, self.row, value)
        return self

    def zero(self, task_ctx=None):
        """Reset to all zeros (the ``gradient.zero()`` of Figure 3)."""
        return self.fill(0.0, task_ctx=task_ctx)

    def randomize(self, scale=0.01, rng=None):
        """Fill with centered uniform noise of half-width *scale*.

        Runs through the coordinator as a dense push; used for model
        initialization where reproducibility across server counts matters.
        """
        if rng is None:
            rng = self.ps2.cluster.rng.get("dcv-init-%s" % self.name)
        values = (rng.random(self.dim) - 0.5) * 2.0 * scale
        self.push(values)
        return self

    # -- zip (multi-vector server-side computation) --------------------------------

    def zip(self, *others):
        """Zip with co-located siblings for a fused server-side kernel.

        ``weight.zip(velocity, square, gradient).map_partitions(fn)`` runs
        ``fn`` once per server over the aligned local arrays (Figure 3,
        lines 21-26).
        """
        return DCVZip(self, others)

    # -- debugging / testing -------------------------------------------------------

    def materialize(self, task_ctx=None):
        """Pull the full vector (dense) — test/debug helper, fully charged."""
        return self.pull(task_ctx=task_ctx)
