"""Span tracing of the library's public entry points, from outside the library.

``Tracer.install`` replaces each traced function or method by a wrapper that
records a span (name, start, end, parent) and binds the wrapper everywhere
the original is reachable: in every loaded ``sandwichext`` module that
imported it by name (``sandwichext.extension.solve_lp`` and
``sandwichext.operators.solve_lp`` are separate bindings of the LP entry
point) and under every class attribute that aliases a traced method.
``uninstall`` puts the originals back. Spans stay in memory until ``write``.

Every benchmark operation opens a root span ``bench.<phase>``; the spans
below it share that root, which is the request identifier, and the phase
it names. ``layer_metrics`` turns the spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager

# (module, attribute path, span name)
TARGETS = (
    ("sandwichext.spaces", "FilteredSpace.rv", "spaces.rv"),
    ("sandwichext.subspaces", "Subspace.contains", "subspaces.contains"),
    ("sandwichext.lp", "solve_lp", "lp.solve_lp"),
    ("sandwichext.operators", "validate_operator", "operators.validate_operator"),
    ("sandwichext.operators", "check_mM1", "operators.check_mM1"),
    ("sandwichext.operators", "check_sandwich", "operators.check_sandwich"),
    ("sandwichext.operators", "DensityPolytope.contains_on_block",
     "operators.contains_on_block"),
    ("sandwichext.extension", "conjugate", "extension.conjugate"),
    ("sandwichext.extension", "density_set", "extension.density_set"),
    ("sandwichext.extension", "maximal_extension", "extension.maximal_extension"),
    ("sandwichext.extension", "ExtendedOperator.evaluate", "extension.evaluate"),
    ("sandwichext.extension", "attain", "extension.attain"),
    ("sandwichext.extension", "minimal_penalty", "extension.minimal_penalty"),
    ("sandwichext.extension", "verify_representation",
     "extension.verify_representation"),
    ("sandwichext.dynamic", "validate_system", "dynamic.validate_system"),
    ("sandwichext.dynamic", "extend_system", "dynamic.extend_system"),
    ("sandwichext.dynamic", "ExtendedSystem.evaluate", "dynamic.evaluate"),
    ("sandwichext.dynamic", "price", "dynamic.price"),
    ("sandwichext.dynamic", "system_penalty", "dynamic.system_penalty"),
    ("sandwichext.dynamic", "check_cocycle_and_local",
     "dynamic.check_cocycle_and_local"),
    ("sandwichext.dynamic", "refine_and_compare", "dynamic.refine_and_compare"),
    ("sandwichext.scenario", "load_scenario", "scenario.load_scenario"),
    ("sandwichext.cli", "main", "cli.main"),
)

PHASES = ("setup", "evaluate", "price", "report")


def _lp_pivots(args, result):
    return result.iterations


def _attain_blocks(args, result):
    return len(args[0].polytope.blocks)


# per span name: f(args, result) -> an integer stored with the span
EXTRAS = {"lp.solve_lp": _lp_pivots, "extension.attain": _attain_blocks}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.extras: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.roots.append(self._stack[0] if self._stack else idx)
        self.extras.append(0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, phase: str):
        """Root span of one benchmark operation in ``phase``."""
        idx = self._open("bench." + phase)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                self.extras[idx] = extra(args, out)
            return out
        return wrapper

    # -- binding -----------------------------------------------------------

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "sandwichext" or k.startswith("sandwichext.")]
        for mod_name, path, name in TARGETS:
            owner = sys.modules[mod_name]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
            wrapper = self._wrap(name, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as one JSON document: names, then one row per span."""
        table = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(table)}
        rows = [[ids[n], s, e, p, r, x] for n, s, e, p, r, x in zip(
            self.names, self.starts, self.ends, self.parents, self.roots,
            self.extras)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table,
                       "columns": ["name", "start", "end", "parent", "root",
                                   "extra"],
                       "spans": rows}, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict:
        """Per-layer counts, busy seconds and self seconds, by span name.

        Busy time counts only the outermost span of a name, self time
        subtracts the direct children. LP spans are also split by the phase
        of their root and attributed to every traced ancestor.
        """
        n = len(self.names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                busy[name] = busy.get(name, 0.0) + dur[i]

        lp = {ph: [0, 0.0, 0] for ph in ("all",) + PHASES}
        lp_under: dict[str, int] = {}
        evaluate_with_lp = set()
        attain_with_lp = set()
        for i, name in enumerate(self.names):
            if name != "lp.solve_lp":
                continue
            phase = self.names[self.roots[i]].removeprefix("bench.")
            for key in ("all", phase):
                if key in lp:
                    lp[key][0] += 1
                    lp[key][1] += dur[i]
                    lp[key][2] += self.extras[i]
            seen = set()
            p = self.parents[i]
            while p >= 0:
                anc = self.names[p]
                if anc not in seen:
                    seen.add(anc)
                    lp_under[anc] = lp_under.get(anc, 0) + 1
                if anc == "extension.evaluate":
                    evaluate_with_lp.add(p)
                elif anc == "extension.attain":
                    attain_with_lp.add(p)
                p = self.parents[p]

        out = {}

        def put(key, value, unit):
            out[key] = (value, unit)

        put("spaces.rv.calls", calls.get("spaces.rv", 0), "count")
        put("spaces.rv.s", busy.get("spaces.rv", 0.0), "s")
        put("subspaces.contains.calls", calls.get("subspaces.contains", 0), "count")
        put("operators.check_mM1.s", busy.get("operators.check_mM1", 0.0), "s")
        put("operators.check_sandwich.s",
            busy.get("operators.check_sandwich", 0.0), "s")
        put("operators.check_sandwich.lp_calls",
            lp_under.get("operators.check_sandwich", 0), "count")
        put("operators.contains_on_block.calls",
            calls.get("operators.contains_on_block", 0), "count")
        put("dynamic.validate_system.calls",
            calls.get("dynamic.validate_system", 0), "count")
        for key in ("validate_system", "extend_system", "evaluate", "price",
                    "refine_and_compare", "check_cocycle_and_local"):
            put(f"dynamic.{key}.s", busy.get(f"dynamic.{key}", 0.0), "s")
        for phase, (count, secs, pivots) in lp.items():
            tag = "" if phase == "all" else "." + phase
            put("lp.solve_lp.calls" + tag, count, "count")
            put("lp.solve_lp.s" + tag, secs, "s")
            put("lp.pivots" + tag, pivots, "count")
            put("lp.us_per_pivot" + tag,
                secs / pivots * 1e6 if pivots else 0.0, "us")
        attain_blocks = sum(self.extras[i] for i in attain_with_lp)
        put("extension.attain.calls", calls.get("extension.attain", 0), "count")
        put("extension.attain.self_s", self_s.get("extension.attain", 0.0), "s")
        put("extension.attain.lp_per_block",
            lp_under.get("extension.attain", 0) / attain_blocks
            if attain_blocks else 0.0, "ratio")
        n_eval = calls.get("extension.evaluate", 0)
        put("extension.evaluate.calls", n_eval, "count")
        put("extension.evaluate.hit_ratio",
            (n_eval - len(evaluate_with_lp)) / n_eval if n_eval else 0.0,
            "ratio")
        for key in ("minimal_penalty", "density_set", "maximal_extension"):
            put(f"extension.{key}.s", busy.get(f"extension.{key}", 0.0), "s")
        put("scenario.load_scenario.s", busy.get("scenario.load_scenario", 0.0), "s")
        put("cli.main.s", busy.get("cli.main", 0.0), "s")
        return out
