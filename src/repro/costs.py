"""The price list: every byte, flop and second the simulator charges.

The formulas elsewhere count units (index words, elements written, records
scanned, tasks launched); this table prices them, each price stated once
with its provenance and imported by name wherever it is charged.  Only the
hardware defaults at the bottom vary per run, through
:class:`~repro.config.NodeSpec` and :class:`~repro.config.NetworkSpec`.
They follow the testbed of Section 6.1 of the paper; the simulator is
laptop-scale, so datasets shrink elsewhere but these machine ratios hold.
"""

# -- wire bytes ---------------------------------------------------------------

#: Per-transfer NIC envelope: framing, routing metadata, protobuf overhead.
MESSAGE_OVERHEAD_BYTES = 64

#: A dense float64 element.
FLOAT_BYTES = 8

#: An integer index word (64-bit keys, as in production PS2).
INDEX_BYTES = 8

#: A float16-quantized element (the ``fp16`` codec).
FP16_BYTES = 2

#: An int8-quantized element (the ``int8`` codec; its scale is one float).
INT8_BYTES = 1

#: Request header: matrix id + row id + op code + range descriptor.
REQUEST_HEADER_BYTES = 48

#: Response header: status + matrix id + row id.
RESPONSE_HEADER_BYTES = 32

#: Batch sub-request descriptor: op code + row id + payload length.  Its
#: saving over a full request header, times (k - 1), is the coalescing win.
SUBREQUEST_HEADER_BYTES = 16

#: Routing-table entry per server: server id + location + column range.
ROUTING_ENTRY_BYTES = 16

#: Driver-to-executor control message carrying a serialized task closure.
TASK_DESCRIPTION_BYTES = 512

# -- server flops per element -------------------------------------------------

#: An elementwise read-and-add: lazy-row creation, shard aggregates.
ELEMENTWISE_FLOPS = 2.0

#: A push, per element written on any copy: add reads and adds, assign stores.
WRITE_FLOPS = {"add": ELEMENTWISE_FLOPS, "assign": 1.0}

#: A zip kernel stating no flop count, per element per operand pass.
KERNEL_FLOPS_PER_ELEMENT = 3.0

#: A fenced or already-covered replica copy: its version check.
COPY_CHECK_FLOPS = 1.0

#: A pull, per element copied out of the shard (at least one).
READ_FLOPS = 1.0

#: A fill, per element stored (at least one); a fill in a kernel too.
FILL_FLOPS = 1.0

#: A clock advance, per version token read (at least one).
CLOCK_FLOPS = 1.0

# -- executor and driver ------------------------------------------------------

#: Scanning one record off a base partition.
RECORD_FLOPS = 100.0

#: Client CPU to issue one RPC (serialization, bookkeeping).
RPC_CPU_SECONDS = 5e-6

#: Per-task launch overhead on the executor (deserialization, setup).
TASK_OVERHEAD_SECONDS = 1e-3

# -- storage ------------------------------------------------------------------

#: Checkpoint store sequential throughput, HDFS-like (Section 5.3), in B/s.
STORAGE_BANDWIDTH = 200e6

# -- hardware defaults: the only per-run prices (NodeSpec / NetworkSpec) ------

#: 10 Gbps Ethernet (Section 6.1) in bytes/second.
TEN_GBPS = 10e9 / 8

#: 2.2 GHz x 12 cores x ~4 flops/cycle is ~1e11 (Section 6.1), derated to
#: 2e10 for the scalar-heavy ML kernels these workloads run.
NODE_FLOPS = 2e10

#: One-way latency of every link, in seconds.
LINK_LATENCY = 1e-4

#: Figure 13's derated CPUs: tuned by hand so per-worker compute shows next
#: to the fixed per-task overheads on the 5-20 node grid; not calibrated.
FIG13_NODE_FLOPS = 2e7
