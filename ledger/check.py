"""The output check every response passes through, and the placeholder count.

References come from an in-process ``Lantern.load`` of the checkpoint the
service booted from.  Rule narration is deterministic under the serving
config, so rule-mode text must match exactly.  Neural and auto wording
legitimately varies (beam alternatives cycle with exposure), so those are
held to the reference's structure instead: the same steps, each naming the
same operators and relations, with every tag restored and no empty step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

#: the fallback phrases a narrator emits when it lost a condition or attribute
PLACEHOLDERS = ("the specified condition", "the specified attribute")


@dataclass(frozen=True)
class Reference:
    """What the reference facade narrated for one payload in rule mode."""

    text: str
    steps: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]

    @classmethod
    def from_narration(cls, narration: Any) -> "Reference":
        return cls(
            narration.text,
            tuple(
                (tuple(step.operator_names), tuple(step.relations)) for step in narration.steps
            ),
        )


def check_narration(
    narration: dict[str, Any], reference: Reference, mode: str, tags: Sequence[str]
) -> list[str]:
    """Problems with one response's ``narration`` object (empty when correct)."""
    steps = narration.get("steps") or []
    if mode == "rule":
        if narration.get("text") != reference.text:
            return ["rule text differs from the reference"]
        return []
    problems: list[str] = []
    if len(steps) != len(reference.steps):
        return [f"{len(steps)} steps where the reference has {len(reference.steps)}"]
    for position, (step, (operators, relations)) in enumerate(zip(steps, reference.steps)):
        text = step.get("text") or ""
        if not text.strip():
            problems.append(f"step {position} is empty")
        leaked = [tag for tag in tags if tag in text]
        if leaked:
            problems.append(f"step {position} keeps raw tags {leaked}")
        if tuple(step.get("operator_names", ())) != operators:
            problems.append(f"step {position} names other operators")
        if tuple(step.get("relations", ())) != relations:
            problems.append(f"step {position} names other relations")
    return problems


def placeholder_steps(narration: dict[str, Any]) -> tuple[int, int]:
    """(steps holding a fallback phrase, steps) of one narration."""
    steps = narration.get("steps") or []
    hits = sum(1 for step in steps if any(p in (step.get("text") or "") for p in PLACEHOLDERS))
    return hits, len(steps)
