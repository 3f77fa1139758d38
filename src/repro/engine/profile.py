"""Hot-path profiler structures of the DTOP engine.

Each engine owns one mutable *profile* dict (:func:`new_profile`) and
bumps its counters from the sweep's miss path — evaluations, not memo
hits, are what cost time, so the warm fast paths stay untouched.  The
dict holds:

``rule_hits``
    one int per compiled rule index: how many demanded pairs that rule
    evaluated (template replays).
``height_pairs`` / ``height_seconds``
    pairs evaluated and wall time spent per subtree-height level of the
    sweep.
``sweeps`` / ``sweep_seconds``
    sweep invocations and their total wall time.

:func:`profile_snapshot` turns a profile into the JSON-ready form the
``profile`` protocol verb and ``ServerClient.profile()`` return: rules
sorted by hit count and labeled ``state × symbol`` via the compiled
dispatch table, so an operator can read which rules of a learned DTOP
dominate execution.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = [
    "clear_profile",
    "new_profile",
    "profile_snapshot",
    "rule_labels",
]


def new_profile(num_rules: int) -> Dict[str, Any]:
    """A zeroed profile for an engine with ``num_rules`` compiled rules."""
    return {
        "rule_hits": [0] * num_rules,
        "height_pairs": {},
        "height_seconds": {},
        "sweeps": 0,
        "sweep_seconds": 0.0,
    }


def rule_labels(compiled) -> List[str]:
    """Human labels, one per rule index: ``"state × symbol"``.

    Recovered from the flat dispatch table — each rule occupies exactly
    one ``(state, symbol)`` cell of ``rule_of``.
    """
    labels = ["?"] * len(compiled.rule_templates)
    num_symbols = compiled.num_symbols
    for slot, rule in enumerate(compiled.rule_of):
        if rule >= 0 and labels[rule] == "?":
            state = compiled.state_names[slot // num_symbols]
            symbol = compiled.symbol_names[slot % num_symbols]
            labels[rule] = f"{state!r} × {symbol!r}"
    return labels


def profile_snapshot(compiled, profile: Dict[str, Any]) -> Dict[str, Any]:
    """The JSON-ready snapshot of one engine's profile.

    ``rules`` lists only rules that fired, hottest first; ``heights``
    lists every sweep height level, lowest first.
    """
    labels = rule_labels(compiled)
    rules = [
        {"rule": index, "label": labels[index], "hits": hits}
        for index, hits in enumerate(profile["rule_hits"])
        if hits
    ]
    rules.sort(key=lambda item: (-item["hits"], item["rule"]))
    height_pairs = profile["height_pairs"]
    height_seconds = profile["height_seconds"]
    heights = [
        {
            "height": height,
            "pairs": height_pairs.get(height, 0),
            "seconds": round(height_seconds.get(height, 0.0), 9),
        }
        for height in sorted(set(height_pairs) | set(height_seconds))
    ]
    return {
        "sweeps": profile["sweeps"],
        "sweep_seconds": round(profile["sweep_seconds"], 9),
        "rules_evaluated": sum(profile["rule_hits"]),
        "rules": rules,
        "heights": heights,
    }


def clear_profile(profile: Dict[str, Any]) -> None:
    """Zero a profile in place (counters, levels, sweep totals)."""
    rule_hits = profile["rule_hits"]
    for index in range(len(rule_hits)):
        rule_hits[index] = 0
    profile["height_pairs"].clear()
    profile["height_seconds"].clear()
    profile["sweeps"] = 0
    profile["sweep_seconds"] = 0.0
