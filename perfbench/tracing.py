"""Outside-in tracing of the tsense layers.

Wrappers are installed at every name a caller looks up: each module of
the package that binds the function (``tsense.cli.scan``,
``tsense.metrology.decompose``, ...), or the class attribute for a
method.  A wrapper records one span (name, start, end, parent) in memory
and, for some layers, a count derived from the call's arguments or
result.  Self time is a span's duration minus that of its direct child
spans.  A target that no longer exists is reported as absent with zero
counts instead of failing the run.
"""
from __future__ import annotations

import gzip
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Optional


def _n_compositions(n_modes: int, total: int, modes: Optional[int]) -> tuple[int, int]:
    """Compositions of ``total`` the enumeration visits, and those it keeps."""
    visited = math.comb(total + n_modes - 1, n_modes - 1)
    if modes is None:
        return visited, visited
    if total == 0:
        return visited, int(modes == 0)
    return visited, math.comb(n_modes, modes) * math.comb(total - 1, modes - 1)


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default: Any = None) -> Any:
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _optimize_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    kind, total = _arg(args, kwargs, 0, "kind"), _arg(args, kwargs, 1, "total")
    visited, kept = _n_compositions(kind.n_modes, total, _arg(args, kwargs, 2, "modes"))
    return {"compositions": visited, "useful": kept}


def _evolve_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    d = len(_arg(args, kwargs, 0, "spectrum").eigenvalues)
    return {"d2": d * d}


@dataclass(frozen=True)
class Target:
    """One traced function: where it is defined and what to count."""

    layer: str          # metric prefix, e.g. "dynamics.evolve_vector"
    module: str         # defining module, e.g. "tsense.dynamics"
    attr: str           # attribute path in that module, e.g. "PreparedProbe.fisher"
    # derives counts from a call's positional and keyword arguments and result
    counts: Optional[Callable[[tuple, dict, Any], dict[str, float]]] = None


TARGETS = (
    Target("cli.main", "tsense.cli", "main"),
    Target("cli.parse_config", "tsense.cli", "parse_config"),
    Target("cli.render", "tsense.cli", "render",
           lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    Target("probes.decompose", "tsense.probes", "decompose",
           lambda a, k, r: {"components": len(r.components)}),
    Target("ladder.build_ladder", "tsense.ladder", "build_ladder",
           lambda a, k, r: {"rungs": r.d}),
    Target("dynamics.diagonalize", "tsense.dynamics", "diagonalize"),
    Target("dynamics.evolve_vector", "tsense.dynamics", "evolve_vector", _evolve_counts),
    Target("metrology.PreparedProbe.init", "tsense.metrology", "PreparedProbe.__init__"),
    Target("metrology.distributions", "tsense.metrology", "PreparedProbe.distributions"),
    Target("metrology.fisher", "tsense.metrology", "PreparedProbe.fisher"),
    Target("metrology.scan", "tsense.metrology", "scan",
           lambda a, k, r: {"points": len(r.couplings)}),
    Target("metrology.dynamic_range", "tsense.metrology", "dynamic_range",
           lambda a, k, r: {"found": int(r is not None)}),
    Target("optimize.optimize_config", "tsense.optimize", "optimize_config", _optimize_counts),
    Target("optimize.lagrange_relaxation", "tsense.optimize", "lagrange_relaxation"),
)


class Tracer:
    """Installs the wrappers, records spans, and aggregates them per pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._installed: list[tuple[Any, str, Any]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for nid, target in enumerate(TARGETS):
            owner, name, original = _resolve(target)
            if original is None:
                self.absent.append(target.layer)
                continue
            wrapper = self._wrap(nid, target, original)
            if owner is not None:  # a method: callers look it up on the class
                self._set(owner, name, wrapper)
                continue
            for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "tsense"]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def _set(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._installed.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap(self, nid: int, target: Target, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts, layer = self.counts, target.layer
        counter = target.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[f"{layer}.{key}"] += value
            return result

        return wrapper

    # -- aggregation --------------------------------------------------------

    def take_pass(self) -> tuple[dict[str, float], list]:
        """Per-layer metrics of the spans recorded since the last call."""
        spans = self.spans
        n = len(TARGETS)
        calls, total, child = [0] * n, [0.0] * n, [0.0] * n
        refine = 0
        dr_nid = _nid("metrology.dynamic_range")
        fisher_nid = _nid("metrology.fisher")
        for nid, t0, t1, parent in spans:
            calls[nid] += 1
            total[nid] += t1 - t0
            if parent >= 0:
                pnid = spans[parent][0]
                child[pnid] += t1 - t0
                if nid == fisher_nid and pnid == dr_nid:
                    refine += 1
        out: dict[str, float] = {}
        for nid, target in enumerate(TARGETS):
            out[f"{target.layer}.calls"] = calls[nid]
            out[f"{target.layer}.self_s"] = total[nid] - child[nid]
        out.update(self.counts)
        c = self.counts
        # model: four d x d real matvecs per call (V^T psi0, then V times the
        # three phase-weighted vectors) on complex vectors, 2 flops per real
        # multiply-add and the 8-byte real matrix read once per matvec
        d2 = out.pop("dynamics.evolve_vector.d2", 0)
        out["dynamics.evolve_vector.flops_computed"] = 16 * d2
        out["dynamics.evolve_vector.bytes_computed"] = 32 * d2
        out["metrology.dynamic_range.refine_evals"] = refine
        out["metrology.dynamic_range.found_ratio"] = _ratio(
            c.get("metrology.dynamic_range.found", 0), calls[dr_nid])
        out["optimize.optimize_config.useful_ratio"] = _ratio(
            c.get("optimize.optimize_config.useful", 0),
            c.get("optimize.optimize_config.compositions", 0))
        recorded = list(spans)
        spans.clear()
        self.counts.clear()
        return out, recorded


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nid(layer: str) -> int:
    return next(i for i, t in enumerate(TARGETS) if t.layer == layer)


def _resolve(target: Target) -> tuple[Any, str, Any]:
    """(class or None, attribute name, original function or None)."""
    module = sys.modules.get(target.module)
    path = target.attr.split(".")
    obj = module
    for name in path[:-1]:
        obj = getattr(obj, name, None)
    if obj is None:
        return None, path[-1], None
    original = getattr(obj, path[-1], None) if len(path) == 1 else vars(obj).get(path[-1])
    return (obj if len(path) > 1 else None), path[-1], original


def write_spans(path, spans: list) -> None:
    """Spans of one traced pass as gzipped JSON: names, then rows."""
    rows = [[nid, round(t0, 9), round(t1, 9), parent] for nid, t0, t1, parent in spans]
    doc = {"names": [t.layer for t in TARGETS],
           "columns": ["name", "start_s", "end_s", "parent"], "spans": rows}
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
