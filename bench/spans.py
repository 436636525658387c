"""In-memory spans around scoreline's layer boundaries.

Each public function is wrapped at the name its caller looks it up by (a
module attribute), so that ``search.solve`` is traced even though
``lpcore.solve`` is the definition.  Spans are kept in flat arrays with a
parent link and written out only when the run ends.  A span's self time
is its duration minus the durations of its direct children, so the self
times of all spans add up exactly to the duration of the root spans.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, result)`` returns the
        result handed back to the caller."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            return result if count is None else count(self.counts, result)

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, count))
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def layers(self) -> dict[str, dict]:
        """Per span name: total self time, number of calls and durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {
            name: {"self_s": 0.0, "calls": 0, "durations": []} for name in self.names
        }
        for i in range(n):
            entry = out[self.names[self.name[i]]]
            entry["self_s"] += dur[i] - child[i]
            entry["calls"] += 1
            entry["durations"].append(dur[i])
        return out

    def dump(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        doc = {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_s": [round(t - t0, 9) for t in self.start],
            "end_s": [round(t - t0, 9) for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_solve(counts, outcome):
    status = outcome.status.value
    counts["lpcore.optimal"] += status == "optimal"
    counts["lpcore.infeasible"] += status == "infeasible"
    counts["lpcore.eq"] += status == "optimal" and outcome.value > 0
    return outcome


def _count_build(counts, lp):
    counts["search.lp_rows"] += len(lp.constraints)
    counts["search.lp_cols"] += len(lp.variables)
    return lp


def _count_types(counts, entries):
    if isinstance(entries, list):
        counts["search.types"] += len(entries)
        counts["search.types_pruned"] += sum(e.pruned for e in entries)
        return entries

    def counted():  # a streamed enumeration is counted as it is consumed
        for e in entries:
            counts["search.types"] += 1
            counts["search.types_pruned"] += e.pruned
            yield e

    return counted()


def _count_ledger(counts, report):
    counts["verify.ledger_entries"] += len(report.ledger)
    return report


def _count_pieces(counts, pw):
    counts["profiles.pieces"] += len(pw.pieces)
    return pw


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary that the workloads cross."""
    from scoreline import analytic, cli, profiles, search, verify

    tracer.patch(cli, "main", "cli")
    for attr in ("parse_rule", "canonicalize", "classify", "cox_threshold",
                 "plateaus", "shape_profile"):
        tracer.patch(cli, attr, "rulekit")
    tracer.patch(search, "canonicalize", "rulekit")
    tracer.patch(search, "find_ncne", "search.find_ncne")
    tracer.patch(search, "enumerate_cluster_types", "search.enumerate", _count_types)
    tracer.patch(search, "prune_cluster_type", "analytic.prune")
    tracer.patch(search, "build_deviation_lp", "search.build", _count_build)
    tracer.patch(search, "solve", "lpcore.solve", _count_solve)
    tracer.patch(verify, "verify_profile", "verify.verify_profile", _count_ledger)
    tracer.patch(analytic, "impossibility_verdicts", "analytic.verdicts")
    tracer.patch(profiles, "score_pieces", "profiles.score_pieces", _count_pieces)
