"""Timing wrappers around the layer entry points that `cutbiot.cli` calls.

`Tracer.installed()` replaces those names in the `cutbiot.cli` namespace for
the duration of a `with` block and puts the originals back on exit, also when
the block raises.  Each wrapped call records a span (name, start, end and the
ladder level or translation it belongs to) in memory; counters are read from
the call's arguments and return value, never from inside the program.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Entry point in cutbiot.cli -> the module that defines it.
LAYERS = {
    "build_mesh": "mesh",
    "classify": "mesh",
    "build_cut_rules": "geometry",
    "build_space": "spaces",
    "assemble_system": "forms",
    "assemble_rhs": "forms",
    "with_params": "forms",
    "without_ghost": "forms",
    "solve": "solver",
    "estimate_condition": "solver",
    "error_norms": "verification",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    context: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _CountingLU:
    """Stands in for a SuperLU object and counts its `solve` calls."""

    def __init__(self, lu, counters):
        self._lu = lu
        self._counters = counters

    def solve(self, *args, **kwargs):
        self._counters["solver.kappa_inverse_solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counters for every layer call one CLI command makes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.residual_max = 0.0
        self.cut_areas: list[float] = []
        self.overhead_s = 0.0
        self.context = ""
        self.origin = time.perf_counter()

    @contextmanager
    def installed(self, module):
        """Wrap the entry points of `module` (cutbiot.cli) inside the block."""
        originals = {name: getattr(module, name) for name in LAYERS}
        try:
            for name, fn in originals.items():
                setattr(module, name, self._wrap(name, fn))
            yield self
        finally:
            for name, fn in originals.items():
                setattr(module, name, fn)

    def _wrap(self, name, fn):
        before = getattr(self, f"_before_{name}", None)
        after = getattr(self, f"_after_{name}", None)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            if before is not None:
                args, kwargs = before(args, kwargs)
            t1 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = time.perf_counter()
                self.spans.append(Span(name, t1, t2, self.context))
            if after is not None:
                after(args, kwargs, result)
            self.overhead_s += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return wrapper

    # -- argument and result hooks, one per entry point that needs one

    def _before_build_mesh(self, args, kwargs):
        box_lo, _, n = args
        self.context = f"N={int(n)} x0={float(box_lo[0]):.6f}"
        return args, kwargs

    def _after_classify(self, args, kwargs, active):
        cut = active.cut_cells
        self.counters["mesh.cut_cells"] += len(cut)
        self.counters["mesh.escalated_cells"] += sum(
            1 for c in cut
            if (clip := active.clip_for(int(c))) is not None and clip.subdiv > active.subdiv)

    def _after_build_cut_rules(self, args, kwargs, rules):
        active = args[0]
        self.counters["geometry.volume_points"] += sum(len(r.vol_wts) for r in rules.cut.values())
        self.counters["geometry.cut_cell_rules"] += len(rules.cut)
        self.cut_areas.append(rules.total_volume(active))

    def _after_build_space(self, args, kwargs, space):
        self.counters["spaces.dofs"] += space.n_dofs

    def _after_assemble_system(self, args, kwargs, system):
        self.counters["forms.matrix_nnz"] += system.matrix.nnz

    def _after_solve(self, args, kwargs, report):
        self.counters["solver.solved_matrix_nnz"] += args[0].matrix.nnz
        self.counters["solver.factor_nnz"] += report.factor_nnz
        self.residual_max = max(self.residual_max, report.rel_residual)

    def _before_estimate_condition(self, args, kwargs):
        if "lu" in kwargs and kwargs["lu"] is not None:
            kwargs = {**kwargs, "lu": _CountingLU(kwargs["lu"], self.counters)}
        elif len(args) > 1 and args[1] is not None:
            args = (args[0], _CountingLU(args[1], self.counters), *args[2:])
        return args, kwargs

    # -- summaries

    def seconds_in(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def traced_seconds(self) -> float:
        """Wall time inside wrapped calls (the entry points never nest)."""
        return sum(s.seconds for s in self.spans)

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced run of a CLI command."""
        c = self.counters
        cut_rules = c["geometry.cut_cell_rules"]
        solved_nnz = c["solver.solved_matrix_nnz"]
        return {
            "solver.solve_s": self.seconds_in("solve"),
            "solver.factor_nnz": c["solver.factor_nnz"],
            "solver.fill_ratio": c["solver.factor_nnz"] / solved_nnz if solved_nnz else 0.0,
            "solver.residual_max": self.residual_max,
            "solver.estimate_condition_s": self.seconds_in("estimate_condition"),
            "solver.kappa_inverse_solves": c["solver.kappa_inverse_solves"],
            "forms.assemble_system_s": self.seconds_in("assemble_system"),
            "forms.matrix_nnz": c["forms.matrix_nnz"],
            "forms.assemble_rhs_s": self.seconds_in("assemble_rhs"),
            "forms.with_params_s": self.seconds_in("with_params"),
            "forms.without_ghost_s": self.seconds_in("without_ghost"),
            "verification.error_norms_s": self.seconds_in("error_norms"),
            "geometry.build_cut_rules_s": self.seconds_in("build_cut_rules"),
            "geometry.volume_points": c["geometry.volume_points"],
            "geometry.points_per_cut_cell":
                c["geometry.volume_points"] / cut_rules if cut_rules else 0.0,
            "mesh.classify_s": self.seconds_in("classify"),
            "mesh.cut_cells": c["mesh.cut_cells"],
            "mesh.escalated_cells": c["mesh.escalated_cells"],
            "spaces.build_space_s": self.seconds_in("build_space"),
            "spaces.dofs": c["spaces.dofs"],
            "cli.self_s": wall_s - self.traced_seconds(),
            "trace.overhead_s": self.overhead_s,
        }

    def dump(self, path) -> None:
        """Write the spans, with times relative to the tracer's creation, as JSON."""
        spans = [{**asdict(s), "start": s.start - self.origin, "end": s.end - self.origin,
                  "layer": LAYERS[s.name]} for s in self.spans]
        path.write_text(json.dumps({"spans": spans, "counters": dict(self.counters)},
                                   indent=1) + "\n")
