"""Span recorder for the traced run, and the per-layer metrics from it.

The recorder rebinds public names where the program calls them -- for
example ``timestepping.cg_deflated`` and ``forms.from_triplets`` -- to
wrappers that record a span (name, start, end, parent, row) around each
call.  Spans stay in memory until the run writes them out.  Leaving the
``with Recorder():`` block restores every original binding.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from miscfem import errors, forms, manufactured, meshing, timestepping


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                    # index of the enclosing span, -1 if none
    row: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_info(args, result):
    report = result[1]
    return {"iterations": report.iterations, "converged": report.converged,
            "nnz": int(args[0].nnz)}


def _matrix_info(args, result):
    return {"rows": int(result.shape[0]), "nnz": int(result.nnz)}


def _mesh_info(args, result):
    return {"triangles": int(result.num_triangles)}


# (module, attribute, span name, info from (args, result)).  A name that
# a module imported from another is rebound in the importing module,
# which is where the call looks it up.
BINDINGS = (
    (meshing, "generate_disk_mesh", "meshing.generate", _mesh_info),
    (forms, "build_discretization", "forms.build_discretization", None),
    (forms, "build_dofmap", "elements.build_dofmap", None),
    (forms, "from_triplets", "solvers.from_triplets", _matrix_info),
    (forms, "dispersion_matrices", "dispersion.matrices", None),
    (manufactured, "problem_coefficients", "manufactured.coefficients", None),
    (timestepping, "run", "timestepping.run", None),
    (timestepping, "initialize", "timestepping.initialize", None),
    (timestepping, "step", "timestepping.step", None),
    (timestepping, "finalize_pressure", "timestepping.finalize", None),
    (timestepping, "interpolate", "elements.interpolate", None),
    (timestepping, "assemble_pressure", "forms.assemble_pressure", None),
    (timestepping, "assemble_concentration", "forms.assemble_concentration",
     None),
    (timestepping, "compute_velocity", "forms.compute_velocity", None),
    (timestepping, "cg_deflated", "solvers.cg", _solve_info),
    (timestepping, "gmres", "solvers.gmres", _solve_info),
    (errors, "measure_errors", "errors.measure", None),
)

SOURCE_FIELDS = ("injection", "production", "injected_concentration",
                 "pressure_source", "concentration_source", "pressure_flux",
                 "concentration_flux")


class Recorder:
    """Collects spans while installed; ``row`` tags the spans it opens."""

    def __init__(self, bindings=BINDINGS):
        self.bindings = bindings
        self.spans: list[Span] = []
        self.row = -1
        self._open: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = Span(name, perf_counter(), math.nan,
                      self._open[-1] if self._open else -1, self.row)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrapped(self, func, name, info=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = func(*args, **kwargs)
            if info is not None:
                record.info.update(info(args, result))
            return result
        return wrapper

    def wrap_sources(self, coeffs, name):
        """Copy of ``coeffs`` whose source and wall-flux callables record
        a span ``name`` per evaluation."""
        return dataclasses.replace(coeffs, **{
            f: self.wrapped(getattr(coeffs, f), name)
            for f in SOURCE_FIELDS if getattr(coeffs, f) is not None})

    def __enter__(self):
        try:
            for owner, attr, name, info in self.bindings:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self.wrapped(original, name, info))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dataclasses.asdict(s)) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


# name, unit, better
LAYER_METRICS = (
    ("meshing.generate_s", "s", "lower"),
    ("meshing.triangles", "count", "lower"),
    ("elements.build_dofmap_s", "s", "lower"),
    ("forms.build_discretization_self_s", "s", "lower"),
    ("forms.assemble_pressure_self_ms", "ms", "lower"),
    ("forms.assemble_concentration_self_ms", "ms", "lower"),
    ("forms.compute_velocity_ms", "ms", "lower"),
    ("forms.p1_dofs", "count", "lower"),
    ("forms.p2_dofs", "count", "lower"),
    ("forms.p1_nnz", "count", "lower"),
    ("forms.p2_nnz", "count", "lower"),
    ("dispersion.matrices_ms", "ms", "lower"),
    ("manufactured.source_eval_ms", "ms", "lower"),
    ("manufactured.source_calls", "count", "lower"),
    ("solvers.from_triplets_ms", "ms", "lower"),
    ("solvers.from_triplets_calls", "count", "lower"),
    ("solvers.cg_ms", "ms", "lower"),
    ("solvers.cg_iterations", "count", "lower"),
    ("solvers.cg_ms_per_iteration", "ms", "lower"),
    ("solvers.gmres_ms", "ms", "lower"),
    ("solvers.gmres_iterations", "count", "lower"),
    ("solvers.gmres_ms_per_iteration", "ms", "lower"),
    ("solvers.matvec_flops_computed", "count", "lower"),
    ("solvers.unconverged", "count", "lower"),
    ("timestepping.initialize_s", "s", "lower"),
    ("timestepping.step_self_ms", "ms", "lower"),
    ("errors.measure_s", "s", "lower"),
    ("trace_overhead_share", "share", "lower"),
    ("row_uncovered_share", "share", "lower"),
)


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def layer_metrics(spans, rows) -> dict:
    """Per-layer figures from the spans of traced rows.

    ``rows`` maps each traced row id to its counters (``steps`` and the
    P1/P2 dof counts of every mesh the row built).  Per-call figures are
    medians over all calls; per-row figures are medians over rows; an
    absent layer reads 0.  ``trace_overhead_share`` is left to the caller,
    which holds the untraced rows.
    """
    own = self_times(spans)
    calls: dict[str, list] = {}
    per_row: dict[int, dict[str, list]] = {r: {} for r in rows}
    for s, self_s in zip(spans, own):
        if s.row not in per_row:
            continue
        item = (s, self_s)
        calls.setdefault(s.name, []).append(item)
        per_row[s.row].setdefault(s.name, []).append(item)

    def row_median(fn):
        return _median([fn(per_row[r], rows[r]) for r in rows])

    def total(name, use_self=False):
        return lambda found, _: sum(
            own_s if use_self else s.duration
            for s, own_s in found.get(name, ()))

    def count(name):
        return lambda found, _: len(found.get(name, ()))

    def info_sum(name, key):
        return lambda found, _: sum(s.info[key] for s, _ in found.get(name, ()))

    def per_call_ms(name, use_self=False):
        return 1e3 * _median([own_s if use_self else s.duration
                              for s, own_s in calls.get(name, ())])

    def nnz(kind):
        def fn(found, counters):
            sizes = set(counters[f"{kind}_dofs"])
            return max((s.info["nnz"] for s, _ in
                        found.get("solvers.from_triplets", ())
                        if s.info["rows"] in sizes), default=0)
        return fn

    def solver(name):
        solves = [s for s, _ in calls.get(name, ())]
        its = sum(s.info["iterations"] for s in solves)
        busy = sum(s.duration for s in solves)
        return (1e3 * _median([s.duration for s in solves]),
                its / len(solves) if solves else 0.0,
                1e3 * busy / its if its else 0.0)

    def flops(found, _):
        return sum(2 * s.info["nnz"] * s.info["iterations"]
                   for name in ("solvers.cg", "solvers.gmres")
                   for s, _ in found.get(name, ()))

    def unconverged(found, _):
        return sum(not s.info["converged"]
                   for name in ("solvers.cg", "solvers.gmres")
                   for s, _ in found.get(name, ()))

    def source_ms_per_step(found, counters):
        steps = counters["steps"]
        busy = total("manufactured.source_eval")(found, counters)
        return 1e3 * busy / steps if steps else 0.0

    def uncovered(found, _):
        row = found["row"][0]
        return row[1] / row[0].duration

    cg_ms, cg_its, cg_per_it = solver("solvers.cg")
    gm_ms, gm_its, gm_per_it = solver("solvers.gmres")
    values = {
        "meshing.generate_s": row_median(total("meshing.generate")),
        "meshing.triangles": row_median(info_sum("meshing.generate",
                                                 "triangles")),
        "elements.build_dofmap_s": row_median(total("elements.build_dofmap")),
        "forms.build_discretization_self_s": row_median(
            total("forms.build_discretization", use_self=True)),
        "forms.assemble_pressure_self_ms": per_call_ms(
            "forms.assemble_pressure", use_self=True),
        "forms.assemble_concentration_self_ms": per_call_ms(
            "forms.assemble_concentration", use_self=True),
        "forms.compute_velocity_ms": per_call_ms("forms.compute_velocity"),
        "forms.p1_dofs": row_median(lambda _, c: sum(c["p1_dofs"])),
        "forms.p2_dofs": row_median(lambda _, c: sum(c["p2_dofs"])),
        "forms.p1_nnz": row_median(nnz("p1")),
        "forms.p2_nnz": row_median(nnz("p2")),
        "dispersion.matrices_ms": per_call_ms("dispersion.matrices"),
        "manufactured.source_eval_ms": row_median(source_ms_per_step),
        "manufactured.source_calls": row_median(
            count("manufactured.source_eval")),
        "solvers.from_triplets_ms": per_call_ms("solvers.from_triplets"),
        "solvers.from_triplets_calls": row_median(
            count("solvers.from_triplets")),
        "solvers.cg_ms": cg_ms,
        "solvers.cg_iterations": cg_its,
        "solvers.cg_ms_per_iteration": cg_per_it,
        "solvers.gmres_ms": gm_ms,
        "solvers.gmres_iterations": gm_its,
        "solvers.gmres_ms_per_iteration": gm_per_it,
        "solvers.matvec_flops_computed": row_median(flops),
        "solvers.unconverged": float(sum(unconverged(per_row[r], rows[r])
                                         for r in rows)),
        "timestepping.initialize_s": row_median(
            total("timestepping.initialize")),
        "timestepping.step_self_ms": per_call_ms("timestepping.step",
                                                 use_self=True),
        "errors.measure_s": row_median(total("errors.measure")),
        "row_uncovered_share": row_median(uncovered),
    }
    return values
