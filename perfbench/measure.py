"""Small measurement helpers: quantiles, peak memory, the result line."""

from __future__ import annotations

import json
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def quantile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile by linear interpolation (numpy's default)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: Sequence[float]) -> float:
    return statistics.fmean(samples) if samples else 0.0


def top_mean(samples: Sequence[float], share: float) -> float:
    """The mean of the largest ``share`` of ``samples`` (at least one)."""
    ordered = sorted(samples, reverse=True)
    return mean(ordered[: max(1, round(share * len(ordered)))])


def ms(seconds: float) -> float:
    return seconds * 1000.0


def rss_peak_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Metrics:
    """Named metric values with units, in insertion order."""

    def __init__(self) -> None:
        self.values: Dict[str, Tuple[float, str]] = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.values[name] = (float(value), unit)

    def update(self, other: "Metrics") -> None:
        self.values.update(other.values)

    def as_json(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in self.values.items()
        }

    def lines(self) -> List[str]:
        return [
            f"  {name:<34} {value:>14.6g} {unit}"
            for name, (value, unit) in self.values.items()
        ]


@dataclass
class Outcome:
    """What one workload run measured."""

    #: Measured seconds so far; the loops stop at ``--seconds``.
    busy_s: float = 0.0
    #: Requests, documents or targets completed in ``busy_s``.
    ops: int = 0
    #: One latency sample per op (per round of bodies on stream-distinct).
    latencies: List[float] = field(default_factory=list)
    #: ``op_tail_ms`` in seconds, and how the workload took it (each
    #: takes it its own way; README.md says why).
    tail_s: float = 0.0
    tail_note: str = ""
    setup: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    layers: Metrics = field(default_factory=Metrics)
    notes: Dict[str, object] = field(default_factory=dict)

    def record(self, seconds: float, ops: int = 1) -> None:
        self.latencies.append(seconds)
        self.ops += ops

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.busy_s if self.busy_s > 0 else 0.0


def result_line(correct: bool, attempted: int, failed: int, metrics: Metrics) -> str:
    """The benchmark's last stdout line."""
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics.as_json(),
        }
    )
