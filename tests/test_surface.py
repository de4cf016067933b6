"""Every definition in ``repro`` is reached by something a user runs.

The program's users are the package itself, the benchmarks and the
examples; the tests are not.  A function, class or method that only the
tests call is surface nobody exercises for real, so it either leaves
``src/`` or is named below with the reason it stays.

The scan is by name, over the parsed source, in the way a reader greps:
a definition is *reached* when a ``Name``, an ``Attribute``, an import
alias or an identifier string outside its own body refers to it, and
that reference sits in reached code.  Module-level statements, and all
of ``benchmarks/`` and ``examples/``, are reached from the start, except
that a package ``__init__`` re-exporting a name (importing it, or
listing it in ``__all__``) does not use it; a
method is reached only once its class is, and a special method
(``__init__``, ``__call__``, ...) as soon as its class is.  A name that
only unreached code uses stays unreached.

``benchmarks/perf/shims.py`` is skipped: it names every timing target as
a string, reached or not, so that a deleted target is counted rather than
fatal.

A shared name hides a definition from the scan: a test-only method named
like a reached one counts as reached (a ``MetricsRegistry.reset`` would
pass through ``TimelineResource.reset``), and is found only by reading.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Definitions only the tests reach, each with the reason it stays.
ALLOWED = {
    # The paper's Table 1 DCV operators: the API the paper defines, whether
    # or not a shipped workload calls every one of them.
    "repro.core.dcv:DCV.iadd": "Table 1 DCV operator",
    "repro.core.dcv:DCV.isub": "Table 1 DCV operator",
    "repro.core.dcv:DCV.imul": "Table 1 DCV operator",
    "repro.core.dcv:DCV.idiv": "Table 1 DCV operator",
    "repro.core.dcv:DCV.add_vec": "Table 1 DCV operator",
    "repro.core.dcv:DCV.shift": "Table 1 DCV operator",
    "repro.core.dcv:DCV.randomize": "Table 1 DCV operator",
    "repro.core.dcv:DCV._inplace_binary": "serves the Table 1 in-place ops",
    "repro.core.kernels:inplace_binary_kernel":
        "server kernel of the Table 1 in-place ops",
    "repro.core.kernels:shift_kernel": "server kernel of DCV.shift",
    # Extensions beyond the paper's evaluation (DESIGN §4b), kept as API.
    "repro.data.graphs:node2vec_walks":
        "graph-embedding extension (DESIGN §4b)",
    # LIBSVM file I/O: the format the paper's real datasets ship in, for
    # loading one in place of a synthetic analogue.
    "repro.data.libsvm:read_libsvm": "LIBSVM dataset I/O",
    "repro.data.libsvm:write_libsvm": "LIBSVM dataset I/O",
    "repro.data.libsvm:loads_row": "LIBSVM dataset I/O",
    "repro.data.libsvm:dumps_row": "LIBSVM dataset I/O",
    # Named by the frozen perf ledger's TrainLR.op_marks.
    "repro.ml.optim.base:ServerSideOptimizer.zero_grad":
        "named by the frozen perf ledger (ROADMAP item 12)",
    # Per-entry reference forms the bulk writers are tested equal to.
    "repro.cluster.metrics:MetricsRegistry.record_request":
        "reference form of record_service_bulk",
    "repro.cluster.metrics:MetricsRegistry.record_shard_access":
        "reference form of record_shard_access_many",
    # Read-only queries that tests assert through.
    "repro.cluster.cluster:Cluster.nodes_by_role": "read-only query",
    "repro.cluster.resource:TimelineResource.intervals": "read-only query",
    "repro.core.pool:DCVPool.allocated_rows": "read-only query",
    "repro.core.pool:DCVPool.free_rows": "read-only query",
    "repro.linalg.sparse:SparseRow.to_dense": "read-only query",
    "repro.ml.results:TrainResult.best_loss": "read-only query",
    "repro.obs.histogram:StreamingHistogram.percentiles": "read-only query",
    "repro.obs.tracer:Tracer.children_of": "read-only query",
    "repro.obs.tracer:Tracer.spans_for": "read-only query",
    "repro.ps.checkpoint:CheckpointManager.has_checkpoint": "read-only query",
    "repro.ps.partitioner:ColumnLayout.position_of": "read-only query",
    "repro.ps.partitioner:ColumnLayout.server_of": "read-only query",
    "repro.ps.server:PSServer.has_replica": "read-only query",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node):
    """Every name *node* refers to: names, attributes, import aliases and
    strings that are identifiers."""
    names = set()
    for leaf in ast.walk(node):
        if isinstance(leaf, ast.Name):
            names.add(leaf.id)
        elif isinstance(leaf, ast.Attribute):
            names.add(leaf.attr)
        elif isinstance(leaf, ast.alias):
            names.add(leaf.name.split(".")[-1])
            if leaf.asname:
                names.add(leaf.asname)
        elif isinstance(leaf, ast.Constant) and isinstance(leaf.value, str) \
                and leaf.value.isidentifier():
            names.add(leaf.value)
    return names


def _re_exports(node):
    """Whether a package ``__init__`` statement only re-exports: an import,
    or the ``__all__`` list."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def unreached(root=ROOT):
    """Ids (``module:Qual.name``) of the definitions in ``root/src/repro``
    that nothing in the package, the benchmarks or the examples reaches."""
    src = root / "src" / "repro"
    paths = [*src.rglob("*.py"), *(root / "benchmarks").rglob("*.py"),
             *(root / "examples").rglob("*.py")]
    refs = {None: set()}  # owner (None = always reached) -> names it uses
    parent = {}           # definition id -> enclosing class id or None

    def visit(body, owner, prefix, cls, package=False):
        for node in body:
            if package and _re_exports(node):
                continue
            if prefix is None or not isinstance(node, _DEFS):
                refs[owner] |= _names(node)
                continue
            key = prefix + node.name
            parent[key] = cls
            if isinstance(node, ast.ClassDef):
                refs[key] = set().union(
                    *map(_names, node.bases + node.keywords
                         + node.decorator_list))
                visit(node.body, key, key + ".", key)
            else:
                refs[key] = _names(node)

    for path in sorted(paths):
        if path == root / "benchmarks" / "perf" / "shims.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        prefix = None  # benchmarks and examples define no candidates
        if src in path.parents:
            prefix = ".".join(
                path.relative_to(src.parent).with_suffix("").parts) + ":"
        visit(tree.body, None, prefix, None, path.name == "__init__.py")

    reached = {None}
    seen = set(refs[None])
    grew = True
    while grew:
        grew = False
        for key, cls in parent.items():
            if key in reached or cls not in reached:
                continue
            name = key.rpartition(":")[2].rpartition(".")[2]
            special = name.startswith("__") and name.endswith("__")
            if special or name in seen:
                reached.add(key)
                seen |= refs[key]
                grew = True
    return {key for key in parent if key not in reached}


def test_only_allowlisted_definitions_are_reached_by_tests_alone():
    """A new test-only definition fails here, and so does an allowlisted
    one that a user now reaches or that no longer exists."""
    found = unreached()
    assert sorted(found - set(ALLOWED)) == [], "reached only by tests"
    assert sorted(set(ALLOWED) - found) == [], "allowlisted but reached or gone"


def test_the_scan_follows_references_transitively(tmp_path):
    """A definition reached only from unreached code is unreached; special
    methods ride on their class; strings and aliases count; a package
    ``__init__``'s re-exports do not."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "examples").mkdir()
    (package / "mod.py").write_text(
        "def used():\n    return helper()\n\n"
        "def helper():\n    return 1\n\n"
        "def dead():\n    return dead_only()\n\n"
        "def dead_only():\n    return 2\n\n"
        "def by_string():\n    return 3\n\n"
        "class Kept:\n"
        "    def __init__(self):\n        self.x = 1\n"
        "    def method(self):\n        return 4\n\n"
        "class Gone:\n"
        "    def method(self):\n        return 5\n"
    )
    (package / "__init__.py").write_text(
        "from repro.extra import re_exported\n"
        "__all__ = ['re_exported', 'listed']\n"
    )
    (package / "extra.py").write_text(
        "def re_exported():\n    return 6\n\n"
        "def listed():\n    return 7\n"
    )
    (tmp_path / "examples" / "run.py").write_text(
        "from repro.mod import used as run_it, Kept\n"
        "run_it(); getattr(Kept(), 'method')()\n"
        "NAMES = ['by_string']\n"
    )
    assert unreached(tmp_path) == {
        "repro.mod:dead", "repro.mod:dead_only", "repro.mod:Gone",
        "repro.mod:Gone.method", "repro.extra:re_exported",
        "repro.extra:listed",
    }
