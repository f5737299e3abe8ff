"""Spans and counters recorded from outside the program.

A `Tracer` wraps public functions of the `xistep` modules: every module
namespace that binds the original function object gets the wrapper, so calls
made inside the package (the CLI calling `solve_stationary`, which calls
`stationary_system`, which calls `solve_exact`) are caught too. Spans stay in
memory and are written as JSONL when the run ends.
"""

import collections
import json
import sys
import time
from contextlib import contextmanager


def _profile_count(table):
    return sum(len(rows) for rows in table.rows.values())


def _max_bits(systems):
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for s in systems for v in s.solution.values()), default=0)


# (module, attribute, span name, counters taken from the return value)
TARGETS = (
    ("xistep.config", "load_config", "config.load_config", None),
    ("xistep.simplex", "build_rate_table", "simplex.build_rate_table",
     lambda t: {"simplex.profiles": _profile_count(t)}),
    ("xistep.simplex", "check_consistency", "simplex.check_consistency",
     lambda r: {"simplex.consistency_checks": len(r.checks)}),
    ("xistep.simulator", "estimate_stationary",
     "simulator.estimate_stationary", None),
    ("xistep.simulator", "estimate_Qt", "simulator.estimate_qt", None),
    ("xistep.simulator", "genealogical_evaluate", "simulator.genealogical",
     None),
    ("xistep.simulator", "replay", "simulator.replay", None),
    ("xistep.moments", "stationary_system", "moments.stationary_system",
     lambda systems: {"moments.unknowns": sum(len(s.unknowns)
                                              for s in systems),
                      "moments.max_bits": _max_bits(systems)}),
    ("xistep.moments", "hausdorff_check", "moments.hausdorff_check",
     lambda r: {"moments.hausdorff_differences": r.checked}),
    ("xistep.linalg", "solve_exact", "linalg.solve_exact", None),
    ("xistep.reversibility", "residual_with_denominator",
     "reversibility.probes", None),
)

# counters that keep their largest value instead of a sum
MAX_COUNTERS = {"moments.max_bits"}


class Tracer:
    """In-memory spans (name, start, end, parent, trace id) and counters."""

    def __init__(self):
        self.spans = []
        self.counters = collections.Counter()
        self.trace_id = 0
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "trace": self.trace_id,
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start_ns": time.perf_counter_ns(),
               "end_ns": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns()

    def count(self, values):
        for key, v in values.items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters[key], v)
            else:
                self.counters[key] += v

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                self.count(counter(out))
            return out
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Put wrappers in place of every target in every loaded xistep
        module, and around each CLI command."""
        for modname, attr, name, counter in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self._wrap(orig, name, counter))
        commands = sys.modules["xistep.cli"].COMMANDS
        for cmd, fn in list(commands.items()):
            self._undo.append((commands, cmd, fn))
            commands[cmd] = self._wrap(fn, f"cli.{cmd}", None)

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "xistep" and not modname.startswith("xistep."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((vars(mod), key, orig))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        for namespace, key, orig in reversed(self._undo):
            namespace[key] = orig
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def self_ns(self):
        """Each span's duration minus the time its direct children cover;
        spans nest without overlap in this single-threaded program."""
        out = {s["id"]: s["end_ns"] - s["start_ns"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return out

    def totals(self, trace_id):
        """Inclusive seconds per span name, and self seconds per module
        (the part of the span name before the first dot), in one trace."""
        own = self.self_ns()
        inclusive = collections.Counter()
        self_by_module = collections.Counter()
        for s in self.spans:
            if s["trace"] != trace_id:
                continue
            inclusive[s["name"]] += (s["end_ns"] - s["start_ns"]) / 1e9
            self_by_module[s["name"].split(".")[0]] += own[s["id"]] / 1e9
        return inclusive, self_by_module

    def write_jsonl(self, path, header):
        own = self.self_ns()
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                fh.write(json.dumps({**s, "self_ns": own[s["id"]]},
                                    sort_keys=True) + "\n")
