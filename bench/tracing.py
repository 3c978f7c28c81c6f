"""Per-layer tracing of collatzlab, installed from outside the package.

``Tracer.install`` replaces the public functions named in ``TARGETS`` with
timing wrappers, in every collatzlab module that holds a reference to them, and
``uninstall`` puts the originals back; nothing under ``src`` is edited.  Each
wrapped call adds its self time (its duration minus the time its wrapped
children took) and a call count to its layer.  Calls other than the hot scalar
ones (``GCMap.apply``, ``GCMap.preimage``, ``return_time``, each called up to
millions of times a pass) are also kept as spans and written out when the run
ends.  The process is single-threaded, so child spans never overlap and the
time they cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


def _tau(counts: Counter, result) -> None:
    counts["dynamics.return_time.tau_sum"] += getattr(result, "tau", 0)


def _range(counts: Counter, rep) -> None:
    counts["rangecheck.max_steps_to_drop"] = max(counts["rangecheck.max_steps_to_drop"], rep.max_steps_to_drop)
    counts["rangecheck.inconclusive"] += len(rep.inconclusive)


def _uncertified_rows(counts: Counter, ops) -> None:
    labels = len(ops.window)
    counts["operators.uncertified_rows"] += 2 * labels - len(ops.t1.exact_rows) - len(ops.t2.exact_rows)


# (layer, module, class or None, attribute, keep spans, reads the result)
TARGETS = (
    ("gcmap.apply", "gcmap", "GCMap", "apply", False, None),
    ("gcmap.preimage", "gcmap", "GCMap", "preimage", False, None),
    ("gcmap.orbit", "gcmap", "GCMap", "orbit", True, None),
    ("gcmap.validate", "gcmap", "GCMap", "validate", True, None),
    ("dynamics.classes", "dynamics", None, "classes", True, None),
    ("dynamics.return_time", "dynamics", None, "return_time", False, _tau),
    ("dynamics.check_reduction_sufficient", "dynamics", None, "check_reduction_sufficient", True, None),
    ("conditions.ck_for_section", "conditions", None, "ck_for_section", True, None),
    ("conditions.separating_condition", "conditions", None, "separating_condition", True, None),
    ("conditions.residue_image_exceptions", "conditions", None, "residue_image_exceptions", True, None),
    ("families.preset_section", "families", None, "preset_section", True, None),
    ("families.verify_mersenne_identities", "families", None, "verify_mersenne_identities", True, None),
    ("operators.build_T", "operators", None, "build_T", True, None),
    ("operators.reachable_span", "operators", None, "reachable_span", True, None),
    ("operators.span_vs_class", "operators", None, "span_vs_class", True, None),
    ("operators.build_section_ops", "operators", None, "build_section_ops", True, _uncertified_rows),
    ("operators.TruncatedOperator.matmul", "operators", "TruncatedOperator", "__matmul__", True, None),
    ("operators.TruncatedOperator.adjoint", "operators", "TruncatedOperator", "adjoint", True, None),
    ("operators.compare_certified", "operators", None, "compare_certified", True, None),
    ("operators.verify_section_relations", "operators", None, "verify_section_relations", True, None),
    ("operators.verify_branch_relations", "operators", None, "verify_branch_relations", True, None),
    ("operators.norm_bound_check", "operators", None, "norm_bound_check", True, None),
    ("rangecheck.verify_range_collatz", "rangecheck", None, "verify_range_collatz", True, _range),
    ("cli.main", "cli", None, "main", True, None),
)

# counts filled from results rather than by the wrappers themselves
COUNTS = (
    "dynamics.return_time.tau_sum",
    "rangecheck.max_steps_to_drop",
    "rangecheck.inconclusive",
    "operators.uncertified_rows",
    "cli.stdout_bytes",
)

METRIC_NAMES = frozenset(
    [f"{t[0]}.s" for t in TARGETS] + [f"{t[0]}.calls" for t in TARGETS] + list(COUNTS)
)


class Tracer:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.request: str | None = None
        self.origin = time.perf_counter()
        self.spans: list = []
        self.passes: list[dict] = []
        self._stack: list[list] = []
        self._self_s: defaultdict = defaultdict(float)
        self._calls: Counter = Counter()
        self._counts: Counter = Counter()
        self._undo: list = []

    # --- installation -----------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items()) if n == "collatzlab" or n.startswith("collatzlab.")]
        for layer, modname, owner, attr, keep, extract in TARGETS:
            mod = sys.modules[f"collatzlab.{modname}"]
            if owner is not None:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, self.wrap(layer, orig, keep, extract))
                continue
            orig = getattr(mod, attr)
            wrapped = self.wrap(layer, orig, keep, extract)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, wrapped)

    def _patch(self, target, name: str, value) -> None:
        self._undo.append((target, name, vars(target)[name]))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)

    # --- spans --------------------------------------------------------------------

    def wrap(self, layer: str, fn, keep: bool, extract):
        stack, spans = self._stack, self.spans
        self_s, calls, counts = self._self_s, self._calls, self._counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            if keep:
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                self_s[layer] += duration - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans[frame[1]] = (layer, t0, t1, parent, self.request)
            if extract is not None:
                extract(counts, result)
            return result

        return traced

    def begin_pass(self) -> None:
        self._self_s.clear()
        self._calls.clear()
        self._counts.clear()

    def end_pass(self, layer_counts: Counter) -> None:
        snap = {f"{k}.s": v for k, v in self._self_s.items()}
        snap.update((f"{k}.calls", v) for k, v in self._calls.items())
        snap.update(self._counts)
        snap.update(layer_counts)
        self.passes.append(snap)

    def calls_repeat(self) -> bool:
        calls = [{k: v for k, v in p.items() if not k.endswith(".s")} for p in self.passes]
        return all(c == calls[0] for c in calls)

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line; times in seconds from tracer start."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, t0, t1, parent, request) in enumerate(self.spans):
                f.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": t0 - self.origin,
                            "end": t1 - self.origin,
                            "parent": parent,
                            "workload": self.workload,
                            "request": request,
                        }
                    )
                    + "\n"
                )
