"""Outside-in tracing of relwave's layers.

The tracer wraps the public functions of each ``src/relwave`` module from the
outside.  Every module-level binding of a wrapped function is replaced, so
``from .specfun import bessel_k1`` in ``free_packets`` (and every other
import site) is caught as well as the defining module.  Each wrapped call
records one span (name, start, end, parent span, run id); spans stay in
memory and are written out once, at the end of the run.  Counters are taken
at the same boundaries.

``layer_metrics`` turns spans and counters into the per-layer metrics.  Each
metric, the end-to-end metric it should move, and the workload it should
move it on:

    specfun.k1.points / .self_s              wall_s       free-metrics
    specfun.pcf.points / .self_s             wall_s       phase-trace, field-density
    specfun.errors                           failed ops   all
    free_packets.build.nodes / .self_s       peak_rss_mb, wall_s   free-metrics
    free_packets.cache_hit_ratio             wall_s       free-metrics
    free_packets.superpose.*                 wall_s, peak_rss_mb   free-metrics
                                             (phase-trace has Nx = 1: no change)
    free_packets.closed_form.self_s          wall_s       free-metrics
    field_packets.basis.*, .cache_hit_ratio  wall_s       field-density
    field_packets.modes.calls / .self_s      wall_s       phase-trace, field-density
    field_packets.superpose.*                wall_s       field-density
    analysis.fit.*                           wall_s       free-metrics
    analysis.phase.*                         wall_s       phase-trace
    analysis.density.self_s                  wall_s       field-density
    kinematics.action.*, quadrature.*        wall_s       phase-trace
    scenarios.*                              wall_s       field-density (CSV),
                                                          free-metrics (slices)

Points are counted on outermost calls only: ``pcf_d`` recurses and
``pcf_d_dz`` calls ``pcf_d``, so nested calls add self time but no points.
A target that no longer exists is skipped and listed in ``missing``; its
time then shows in the self time of its caller.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (metric, unit, better), in the order reported
PER_LAYER = (
    ("specfun.k1.points", "count", "lower"),
    ("specfun.k1.self_s", "s", "lower"),
    ("specfun.pcf.points", "count", "lower"),
    ("specfun.pcf.self_s", "s", "lower"),
    ("specfun.errors", "count", "lower"),
    ("quadrature.nodes", "count", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("kinematics.action.calls", "count", "lower"),
    ("kinematics.action.self_s", "s", "lower"),
    ("free_packets.build.nodes", "count", "lower"),
    ("free_packets.build.self_s", "s", "lower"),
    ("free_packets.cache_hit_ratio", "ratio", "higher"),
    ("free_packets.superpose.calls", "count", "lower"),
    ("free_packets.superpose.mode_points", "count", "lower"),
    ("free_packets.superpose.self_s", "s", "lower"),
    ("free_packets.closed_form.self_s", "s", "lower"),
    ("field_packets.basis.nodes", "count", "lower"),
    ("field_packets.basis.self_s", "s", "lower"),
    ("field_packets.cache_hit_ratio", "ratio", "higher"),
    ("field_packets.modes.calls", "count", "lower"),
    ("field_packets.modes.self_s", "s", "lower"),
    ("field_packets.superpose.mode_points", "count", "lower"),
    ("field_packets.superpose.self_s", "s", "lower"),
    ("analysis.fit.calls", "count", "lower"),
    ("analysis.fit.objective_evals", "count", "lower"),
    ("analysis.fit.self_s", "s", "lower"),
    ("analysis.phase.evals", "count", "lower"),
    ("analysis.phase.useful_ratio", "ratio", "higher"),
    ("analysis.phase.self_s", "s", "lower"),
    ("analysis.density.self_s", "s", "lower"),
    ("scenarios.jobs", "count", "lower"),
    ("scenarios.slices", "count", "lower"),
    ("scenarios.csv_bytes", "B", "lower"),
    ("scenarios.run.self_s", "s", "lower"),
    # spans without a metric of their own, plus the harness loop
    ("trace.other.self_s", "s", "lower"),
    # duration of the traced workload; every self_s above sums to it
    ("trace.wall_s", "s", "lower"),
    # the reported traced worker's wall_s over the run's untraced median, minus one
    ("trace.overhead_frac", "ratio", "lower"),
)

ROOT = "workload"

# span name -> the self_s metric it reports into
_SELF_METRIC = {
    "specfun.k1": "specfun.k1.self_s",
    "specfun.pcf": "specfun.pcf.self_s",
    "quadrature": "quadrature.self_s",
    "kinematics.action": "kinematics.action.self_s",
    "free_packets.build": "free_packets.build.self_s",
    "free_packets.superpose": "free_packets.superpose.self_s",
    "free_packets.closed_form": "free_packets.closed_form.self_s",
    "field_packets.basis": "field_packets.basis.self_s",
    "field_packets.modes": "field_packets.modes.self_s",
    "field_packets.superpose": "field_packets.superpose.self_s",
    "analysis.fit": "analysis.fit.self_s",
    "analysis.phase": "analysis.phase.self_s",
    "analysis.density": "analysis.density.self_s",
    "scenarios.run": "scenarios.run.self_s",
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` holds (name, start, end, parent index, run id) rows.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for a, b in sorted(children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


class Tracer:
    """Spans and counters of one traced workload process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._depth: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._caches: list[tuple[str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int, name: str | None = None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if name is not None:
            span[0] = name
        self._stack.pop()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,run_id,name,start,end\n")
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(f"{i},{parent},{run_id},{name},{start!r},{end!r}\n")

    # -- wrapping ----------------------------------------------------------

    def _traced(self, fn, name, count=None, errors=()):
        """Wrap ``fn`` in a span.  ``count(args, kwargs, result, outermost)``
        updates counters and may return a new name for the span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = self._depth[name] == 0
            self._depth[name] += 1
            idx = self.open(name)
            renamed = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    renamed = count(args, kwargs, result, outermost)
                return result
            except errors:
                if outermost:
                    self.counts["specfun.errors"] += 1
                raise
            finally:
                self._depth[name] -= 1
                self.close(idx, renamed)

        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        """Replace every module-level binding of ``original`` in relwave."""
        for modname, mod in list(sys.modules.items()):
            if modname == "relwave" or modname.startswith("relwave."):
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, attr, val))
                        setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every traced entry point of relwave."""
        import relwave.analysis as analysis
        import relwave.field_packets as field_packets
        import relwave.free_packets as free_packets
        import relwave.kinematics as kinematics
        import relwave.quadrature as quadrature
        import relwave.scenarios as scenarios
        import relwave.specfun as specfun

        c = self.counts
        spec_errors = (specfun.SpecFunDomainError, specfun.SpecFunAccuracyError)

        def outer_points(arg, key):
            def count(args, kwargs, result, outermost):
                if outermost:
                    c[key] += int(np.size(args[arg]))
            return count

        def calls(key):
            def count(args, kwargs, result, outermost):
                c[key] += 1
            return count

        def slice_count(args, kwargs, result, outermost):
            c["scenarios.slices"] += 1

        def field_slice_count(args, kwargs, result, outermost):
            c["scenarios.slices"] += 1
            basis = kwargs.get("basis", args[3] if len(args) > 3 else None)
            if basis is not None:
                c["field_packets.superpose.mode_points"] += len(result.xs) * len(basis.p)

        def quad_count(args, kwargs, result, outermost):
            c["quadrature.nodes"] += int(result.nodes_used)

        def run_count(args, kwargs, result, outermost):
            scn = args[0]
            out_dir = Path(kwargs.get("out_dir", args[1] if len(args) > 1 else "out"))
            c["scenarios.jobs"] += len(scn.cases) * len(scn.outputs)
            c["scenarios.csv_bytes"] += sum((out_dir / f).stat().st_size
                                            for f in result.outputs)

        functions = (
            (specfun, "bessel_k1", "specfun.k1", outer_points(0, "specfun.k1.points")),
            (specfun, "pcf_d", "specfun.pcf", outer_points(1, "specfun.pcf.points")),
            (specfun, "pcf_d_dz", "specfun.pcf", outer_points(1, "specfun.pcf.points")),
            (quadrature, "integrate_complex", "quadrature", quad_count),
            (kinematics, "action_field", "kinematics.action",
             calls("kinematics.action.calls")),
            (kinematics, "action_free", "kinematics.action",
             calls("kinematics.action.calls")),
            (kinematics, "free_trajectory", "kinematics.trajectory", None),
            (kinematics, "field_trajectory", "kinematics.trajectory", None),
            (free_packets, "closed_slice", "free_packets.closed_form", slice_count),
            (free_packets, "psi_closed", "free_packets.closed_form", None),
            (free_packets, "gauss_slice", "free_packets.gauss_form", slice_count),
            (free_packets, "psi_gauss_free", "free_packets.gauss_form", None),
            (free_packets, "spectrum_closed", "free_packets.spectrum", None),
            (field_packets, "field_slice", "field_packets.superpose", field_slice_count),
            (field_packets, "psi_field", "field_packets.superpose", None),
            (analysis, "charge_density", "analysis.density", None),
            (analysis, "gauss_similarity_psi", "analysis.fit", calls("analysis.fit.calls")),
            (analysis, "gauss_similarity_rho", "analysis.fit", calls("analysis.fit.calls")),
            (scenarios, "run", "scenarios.run", run_count),
        )
        for module, attr, name, count in functions:
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            errors = spec_errors if module is specfun else ()
            self._patch_everywhere(original, self._traced(original, name, count, errors))

        for module, attr, build in ((free_packets, "closed_spectral", "free_packets.build"),
                                    (free_packets, "gauss_spectral", "free_packets.build"),
                                    (field_packets, "field_mode_basis", "field_packets.basis")):
            original = getattr(module, attr, None)
            if not hasattr(original, "cache_info"):
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            self._caches.append((module.__name__, original))
            self._patch_everywhere(original, self._traced(
                original, build, self._build_count(original, build)))

        self._wrap_methods(free_packets, field_packets)
        self._wrap_callbacks(analysis)

    def _build_count(self, original, build):
        """An lru_cache miss is a build: span ``build``, its nodes counted in
        ``<build>.nodes``.  A hit is a lookup, in a span of its own."""
        seen = [original.cache_info().misses]

        def count(args, kwargs, result, outermost):
            misses = original.cache_info().misses
            if misses > seen[0]:
                seen[0] = misses
                self.counts[f"{build}.nodes"] += len(result.p)
                return build
            return build.split(".")[0] + ".cache"
        return count

    def _wrap_methods(self, free_packets, field_packets) -> None:
        c = self.counts
        packet = getattr(free_packets, "SpectralPacket", None)
        if packet is not None and "eval_psi_dpsi" in vars(packet):
            def superpose_count(args, kwargs, result, outermost):
                c["free_packets.superpose.calls"] += 1
                c["free_packets.superpose.mode_points"] += len(result[0]) * len(args[0].p)
            self._patch_method(packet, "eval_psi_dpsi", self._traced(
                vars(packet)["eval_psi_dpsi"], "free_packets.superpose", superpose_count))
        else:
            self.missing.append("relwave.free_packets.SpectralPacket.eval_psi_dpsi")

        basis = getattr(field_packets, "FieldModeBasis", None)
        if basis is not None and "modes" in vars(basis):
            def modes_count(args, kwargs, result, outermost):
                c["field_packets.modes.calls"] += 1
            self._patch_method(basis, "modes", self._traced(
                vars(basis)["modes"], "field_packets.modes", modes_count))
        else:
            self.missing.append("relwave.field_packets.FieldModeBasis.modes")

    def _wrap_callbacks(self, analysis) -> None:
        """Count fit objective evaluations and phase-trace evaluator calls;
        these callbacks are too many and too small for a span each."""
        c = self.counts
        best_sigma = getattr(analysis, "best_sigma", None)
        if best_sigma is None:
            self.missing.append("relwave.analysis.best_sigma")
        else:
            @functools.wraps(best_sigma)
            def counted_best_sigma(objective, *args, **kwargs):
                def counted(sigma):
                    c["analysis.fit.objective_evals"] += 1
                    return objective(sigma)
                return best_sigma(counted, *args, **kwargs)
            self._patch_everywhere(best_sigma, counted_best_sigma)

        phase_trace = getattr(analysis, "phase_trace", None)
        if phase_trace is None:
            self.missing.append("relwave.analysis.phase_trace")
            return

        def useful(args, kwargs, result, outermost):
            c["analysis.phase.useful"] += len(result.ts)
        traced = self._traced(phase_trace, "analysis.phase", useful)

        @functools.wraps(phase_trace)
        def counted_phase_trace(evaluator, *args, **kwargs):
            def counted(t, x):
                c["analysis.phase.evals"] += 1
                return evaluator(t, x)
            return traced(counted, *args, **kwargs)
        self._patch_everywhere(phase_trace, counted_phase_trace)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded; ``trace.overhead_frac``
        is left at 0 for the caller, which knows the untraced time."""
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        for (name, start, end, _, _), own in zip(self.spans, self_times(self.spans)):
            out[_SELF_METRIC.get(name, "trace.other.self_s")] += own
            if name == ROOT:
                out["trace.wall_s"] += end - start
        c = self.counts
        for key in out:
            if key in c:
                out[key] = float(c[key])
        for layer in ("free_packets", "field_packets"):
            hits = calls = 0
            for module, original in self._caches:
                if module == f"relwave.{layer}":
                    info = original.cache_info()
                    hits += info.hits
                    calls += info.hits + info.misses
            out[f"{layer}.cache_hit_ratio"] = hits / calls if calls else 0.0
        evals = c["analysis.phase.evals"]
        out["analysis.phase.useful_ratio"] = c["analysis.phase.useful"] / evals if evals else 0.0
        return out
