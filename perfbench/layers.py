"""Charge ``cProfile`` self time and call counts to ``repro`` layers.

A function defined under ``src/repro`` is charged to its module, named
``repro.<package>.<module>`` (``repro.<module>`` for top-level modules,
``repro.<package>`` for a package ``__init__``).  Functions of this
benchmark are charged to ``bench``.  Everything else -- C builtins,
numpy, the standard library -- is charged to whoever called it, split by
the time each caller spent in it, so that ``hashlib`` under the delivery
audit lands on ``repro.faults`` and numpy under content materialisation
lands on ``repro.ufs.data`` instead of piling up in an "other" bucket.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

OTHER = "other"

Func = Tuple[str, int, str]


class Attributor:
    """Maps profiler function keys to layer buckets."""

    def __init__(self, repro_dir: str, bench_dir: str) -> None:
        self.repro_dir = os.path.realpath(repro_dir) + os.sep
        self.bench_dir = os.path.realpath(bench_dir) + os.sep
        self._module_of: Dict[str, str] = {}

    def module_of(self, filename: str) -> str:
        """The bucket owning code in *filename*, or '' if it has none."""
        bucket = self._module_of.get(filename)
        if bucket is None:
            path = os.path.realpath(filename) if filename[:1] not in ("~", "<") else filename
            bucket = ""
            if path.startswith(self.repro_dir):
                parts = path[len(self.repro_dir) :].removesuffix(".py").split(os.sep)
                if parts[-1] == "__init__":
                    parts.pop()
                bucket = ".".join(["repro", *parts])
            elif path.startswith(self.bench_dir):
                bucket = "bench"
            self._module_of[filename] = bucket
        return bucket

    def self_time(self, profile) -> Tuple[Dict[str, float], Dict[str, int]]:
        """(self seconds by bucket, calls into repro functions by module)."""
        stats = pstats.Stats(profile).stats
        shares: Dict[Func, Dict[str, float]] = {}

        def owners(func: Func, visiting: frozenset) -> Dict[str, float]:
            bucket = self.module_of(func[0])
            if bucket:
                return {bucket: 1.0}
            if func in shares:
                return shares[func]
            callers = stats[func][4] if func in stats else {}
            weights = {c: v[2] for c, v in callers.items() if c not in visiting and c in stats}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: float(v[0]) for c, v in callers.items() if c not in visiting}
                total = sum(weights.values())
            if total <= 0:
                return {OTHER: 1.0}
            out: Dict[str, float] = {}
            for caller, weight in weights.items():
                for bucket, share in owners(caller, visiting | {func}).items():
                    out[bucket] = out.get(bucket, 0.0) + share * weight / total
            shares[func] = out
            return out

        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        for func, (_cc, nc, tt, _ct, _callers) in stats.items():
            bucket = self.module_of(func[0])
            if bucket.startswith("repro"):
                calls[bucket] = calls.get(bucket, 0) + nc
            for owner, share in owners(func, frozenset()).items():
                seconds[owner] = seconds.get(owner, 0.0) + tt * share
        return seconds, calls


def layer_total(seconds: Dict[str, float], prefix: str) -> float:
    """Seconds charged to module *prefix* (``repro.<prefix>``) and below."""
    name = f"repro.{prefix}"
    return sum(v for k, v in seconds.items() if k == name or k.startswith(name + "."))
