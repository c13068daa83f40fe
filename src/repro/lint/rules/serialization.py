"""Rule: serializable dataclasses must round-trip.

Result records (`ExecutorStats`, `SweepRunResult`, `GcReport`, …) cross
process and disk boundaries as JSON.  A dataclass that can serialize
(``to_dict``) but not parse (``from_dict``) — or the reverse — breaks
resumable sweeps and the HTTP wire format the moment someone round-trips
it.  The rule flags every
``@dataclass`` whose body defines exactly one of the pair.
"""

from __future__ import annotations

import ast
from typing import List

from ..engine import ModuleSource
from ..findings import Finding


def _is_dataclass_decorator(node: ast.AST) -> bool:
    """``@dataclass``, ``@dataclass(...)``, or ``@dataclasses.dataclass``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr == "dataclass"
    return isinstance(node, ast.Name) and node.id == "dataclass"


class SerializationParityRule:
    id = "serialization-parity"
    description = (
        "a dataclass defining to_dict must define from_dict, and vice versa"
    )

    def check(self, module: ModuleSource) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            defined = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            has_to = "to_dict" in defined
            has_from = "from_dict" in defined
            if has_to == has_from:
                continue
            missing, present = (
                ("from_dict", "to_dict") if has_to else ("to_dict", "from_dict")
            )
            findings.append(
                Finding(
                    file=module.path,
                    line=node.lineno,
                    rule=self.id,
                    message=(
                        f"dataclass {node.name} defines {present} but not "
                        f"{missing}; serializable records must round-trip"
                    ),
                )
            )
        return findings
