"""Every collatzlab name the benchmark under ``bench/`` reaches for still exists.

The benchmark wraps the names in ``bench/tracing.TARGETS`` and drives its
workloads through ``cl.<module>.<name>`` chains and the fields of the reports
they return.  Deleting any of them breaks the benchmark, which only
``bench/test_bench.py`` would notice; this suite does not run that file, so
the names are resolved here.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import collatzlab
import collatzlab.cli  # the package __init__ does not import the CLI

BENCH = Path(__file__).resolve().parents[1] / "bench"

# attributes the benchmark reads off the objects collatzlab returns
READ = {
    "operators.TruncatedOperator": ("window", "cols", "exact_cols", "exact_rows", "with_entry"),
    "operators.SectionOperators": ("window", "s1", "t1", "t2", "inconclusive_columns"),
    "operators.RelationReport": ("ok", "checks"),
    "operators.IdentityCheck": ("columns_checked",),
    "operators.SpanClassReport": ("entries",),
    "operators.SpanClassEntry": (
        "start", "span_size", "class_size", "boundary_members", "span_subset_of_class", "span_equals_certified",
    ),
    "families.Section": ("map", "n1", "n2", "witnesses", "n2_removed", "sigma"),
    "conditions.SectionCKReport": ("passed", "matrix"),
    "conditions.CKMatrix": ("as_lists",),
    "rangecheck.RangeReport": ("limit", "verified", "inconclusive", "max_steps_to_drop"),
}


def _has(cls, name: str) -> bool:
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return hasattr(cls, name) or name in fields


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [t[1:4] for t in tracing.TARGETS]


@pytest.mark.parametrize("module, cls, attr", _targets())
def test_tracing_target_resolves(module, cls, attr):
    owner = importlib.import_module(f"collatzlab.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


def _cl_chains(path: Path) -> set[str]:
    """Every ``cl.a.b...`` attribute chain in a bench script, as "a.b..."."""
    chains = set()
    for node in ast.walk(ast.parse(path.read_text())):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == "cl":
            chains.add(".".join(reversed(parts)))
    return chains


@pytest.mark.parametrize("script", ["workloads.py", "record_golden.py"])
def test_workload_calls_resolve(script):
    chains = _cl_chains(BENCH / script)
    assert chains, f"no cl.<module> call found in bench/{script}"
    for chain in sorted(chains):
        obj = collatzlab
        for part in chain.split("."):
            assert hasattr(obj, part), f"bench/{script} uses cl.{chain}"
            obj = getattr(obj, part)


@pytest.mark.parametrize("owner", sorted(READ))
def test_report_fields_resolve(owner):
    module, cls = owner.split(".")
    obj = getattr(importlib.import_module(f"collatzlab.{module}"), cls)
    assert [a for a in READ[owner] if not _has(obj, a)] == []


def test_section_operators_can_be_replaced_field_by_field():
    # the fault-injection test swaps s1 with dataclasses.replace
    assert dataclasses.is_dataclass(collatzlab.operators.SectionOperators)
