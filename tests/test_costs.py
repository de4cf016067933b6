"""The price list (``repro.costs``) is the one statement of every price.

The formulas across the simulator count units; ``repro.costs`` prices
them.  These tests keep it that way: no other module may define a price
of its own, and the per-run hardware specs default to the table.
"""

import ast
import pathlib

from repro import costs
from repro.config import NetworkSpec, NodeSpec

SRC = pathlib.Path(costs.__file__).resolve().parent

#: Name endings that mark a price wherever they appear.
PRICE_SUFFIXES = ("_BYTES", "_FLOPS", "_SECONDS", "_BANDWIDTH", "_LATENCY")

TABLE = frozenset(name for name in vars(costs) if name.isupper())


def _module_bindings(body):
    """``(name, lineno, import_source)`` for every name a module body binds
    outside its functions and classes (``import_source`` is the module a
    ``from`` import reads, else ``None``)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno, None
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        yield leaf.id, node.lineno, None
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            source = node.module if isinstance(node, ast.ImportFrom) else None
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                yield name, node.lineno, source
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _module_bindings(getattr(node, field, ()))


def test_no_module_but_costs_binds_a_price():
    """Every price is bound in ``repro.costs`` and only imported, from
    there, anywhere else: no module restates one or re-exports it."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "costs.py" and path.parent == SRC:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, lineno, source in _module_bindings(tree.body):
            if source == "repro.costs":
                continue
            if name in TABLE or name.endswith(PRICE_SUFFIXES):
                offenders.append("%s:%d %s" % (
                    path.relative_to(SRC.parent), lineno, name))
    assert not offenders, offenders


def test_hardware_specs_default_to_the_table():
    node = NodeSpec()
    assert node.flops == costs.NODE_FLOPS
    assert node.nic_bandwidth == costs.TEN_GBPS
    network = NetworkSpec()
    assert network.latency == costs.LINK_LATENCY
    assert network.bandwidth == costs.TEN_GBPS
