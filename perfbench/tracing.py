"""Span tracing from outside the package, for the benchmark's traced run.

``Tracer.install`` replaces public functions and methods of ``mrsqkd``
modules with wrappers that record one span per call: name, start, end,
parent span and group. A span opened while no other span is open starts
a new group, so every span of one trial (or of one oracle call) shares
that trial's group id. Spans live in flat arrays in memory; ``write``
saves them to a side file once the run is over, and ``uninstall`` puts
the original functions back.

The wrappers only time calls and pass arguments and results through, so
a traced run produces the same outputs as an untraced one.
"""
from __future__ import annotations

import functools
import itertools
import time
from array import array
from collections import defaultdict
from typing import Callable, Optional

from mrsqkd import adversary, dense, engine, harness, protocol, verify

# (owner, attribute, span name). Functions are patched where the caller
# looks them up: a name imported into another module is wrapped in that
# module's namespace, so each call is recorded exactly once.
TARGETS = (
    (harness, "run_trial", "harness.run_trial"),
    (harness, "run_protocol", "protocol.run_protocol"),
    (harness, "summarize", "harness.summarize"),
    (harness, "emit_csv", "harness.emit_csv"),
    (protocol, "new_register", "protocol.new_register"),
    (protocol, "derive_seed", "protocol.derive_seed"),
    (protocol, "party_step2", "protocol.party_step2"),
    (protocol, "classify_components", "protocol.classify_components"),
    (protocol, "evaluate_step4", "protocol.evaluate_step4"),
    (protocol, "amplify", "privacy.amplify"),
    (protocol, "xor_rule_holds", "bell_algebra.xor_rule_holds"),
    (protocol, "chain_relation_holds", "bell_algebra.chain_relation_holds"),
    (protocol, "infer_remote_bit", "bell_algebra.infer_remote_bit"),
    (engine.Register, "prepare_bell_phi_plus", "engine.prepare_bell"),
    (engine.Register, "measure_z", "engine.measure_z"),
    (engine.Register, "measure_bell", "engine.measure_bell"),
    (adversary.TpHooks, "on_return", "adversary.on_return"),
    (adversary.NaiveMeasureHooks, "on_return", "adversary.on_return"),
    (adversary.ParityAwareMeasureHooks, "on_return", "adversary.on_return"),
    (adversary.ModificationHooks, "on_return", "adversary.on_return"),
    (verify, "verify_backends", "verify.verify_backends"),
    (verify, "sample_tableau", "verify.sample_tableau"),
    (verify, "exact_distribution", "verify.exact_distribution"),
    (dense.DenseState, "copy", "dense.copy"),
)

# Counts taken from a call's result, at the same boundary as its span.
RESULT_COUNTS: dict[str, Callable[[object], int]] = {
    "verify.exact_distribution": len,  # support size of the exact outcome law
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.group = array("q")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._groups = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_of, start, end = self.name_of, self.start, self.end
        parent, group, stack = self.parent, self.group, self._stack
        groups, counts = self._groups, self.counts
        count_result = RESULT_COUNTS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            if stack:
                parent.append(stack[-1])
                group.append(group[stack[-1]])
            else:
                parent.append(-1)
                group.append(next(groups))
            name_of.append(nid)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_result is not None:
                counts[name] += count_result(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path: str) -> None:
        """One span per line: id, parent, group, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,group,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.group[i]},{names[self.name_of[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )


class SpanTable:
    """Durations and self times derived from a tracer's spans.

    A span's self time is its duration minus the durations of its direct
    children; calls here are sequential, so children never overlap.
    """

    def __init__(self, tracer: Tracer) -> None:
        n = len(tracer)
        names = tracer.names
        self.name = [names[i] for i in tracer.name_of]
        self.parent = tracer.parent
        self.dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        root_name: dict[int, str] = {}
        for i, p in enumerate(self.parent):
            if p < 0:
                root_name[tracer.group[i]] = self.name[i]
        self.root = [root_name[g] for g in tracer.group]
        self.counts = dict(tracer.counts)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, nm in enumerate(self.name):
            self.by_name[nm].append(i)

    def select(self, name: str, root: Optional[str] = None, parent: Optional[str] = None) -> list[int]:
        """Indexes of spans called ``name``, optionally only those in a
        group rooted at ``root`` or directly under a ``parent`` span."""
        return [
            i
            for i in self.by_name.get(name, ())
            if (root is None or self.root[i] == root)
            and (parent is None or (self.parent[i] >= 0 and self.name[self.parent[i]] == parent))
        ]
