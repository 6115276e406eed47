"""Configuration-driven convergence studies on the benchmark case.

A study runs the driver on a sequence of refinements of one closed-form
benchmark, measures final-time errors, and emits a CSV/JSON report whose
leading columns follow the usual refinement-table layout

    h (or tau), c L2 error, u L2 error, c max error, u max error

with observed-order rows appended.  The CSV is byte-reproducible for a
fixed config (wall-clock timings live only in the JSON report).
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ErrorRecord, measure_errors, observed_orders
from .forms import build_discretization
from .manufactured import CASES, problem_coefficients
from .meshing import generate_disk_mesh
from .timestepping import SolverOptions, TimeGrid, run
from .vtkio import write_vtk


class ConfigError(ValueError):
    """Configuration violates the schema; ``path`` names the bad field."""

    def __init__(self, path, message):
        super().__init__(f"config field '{path}': {message}")
        self.path = path


# Largest mesh resolution: four times the paper-exact M = 256, whose
# study already takes minutes; memory and run time grow as M^2.
MAX_MESH_M = 1024


def check_mesh_size(path, m) -> None:
    """Reject ``m`` unless it is an integer mesh resolution in
    8..MAX_MESH_M."""
    if not isinstance(m, int) or isinstance(m, bool) or not 8 <= m <= MAX_MESH_M:
        raise ConfigError(path, f"must be an integer in 8..{MAX_MESH_M}, "
                                f"got {m!r}")


def make_output_dir(path, directory) -> Path:
    """Create ``directory`` (and its parents) for the outputs; a path that
    names a file, lies below one or cannot be created is a ConfigError
    for the field ``path``."""
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(path, f"cannot create directory {directory}: "
                                f"{exc.strerror}") from exc
    return out


@dataclass(frozen=True)
class StudyConfig:
    """Validated study/run configuration (see :func:`config_from_dict`)."""

    case: str = "disk-trig"
    mesh_sizes: tuple = (16,)
    time_steps: tuple = (1.0 / 32.0,)
    final_time: float = 1.0
    mode: str = "direct"
    pressure_tol: float = 1e-11
    concentration_tol: float = 1e-10
    fd_step: float = 1e-5
    quad_degree: int = 4
    dump_fields: bool = False
    dump_steps: tuple = ()          # extra step indices; final step is implied
    output_dir: str = "miscfem-out"

    def echo_dict(self) -> dict:
        """Schema-keyed dict of the full configuration.

        Uses the input schema's key names, so an echoed config can be fed
        back through ``--config`` / :func:`config_from_dict` verbatim."""
        d = asdict(self)
        d["mesh_M"] = list(d.pop("mesh_sizes"))
        d["tau"] = list(d.pop("time_steps"))
        d["T"] = d.pop("final_time")
        d["dump_steps"] = list(self.dump_steps)
        return d


_SCHEMA_KEYS = {"case", "mesh_M", "tau", "T", "mode", "pressure_tol",
                "concentration_tol", "fd_step", "quad_degree",
                "dump_fields", "dump_steps", "output_dir"}


def _is_number(value) -> bool:
    """A finite JSON number within the float range; booleans are not
    numbers here."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an integer beyond the float range
        return False


def config_from_dict(data: dict) -> StudyConfig:
    """Validate a JSON-style dict against the config schema.

    Schema (all keys optional, defaults in parentheses):
      case: registered benchmark name ("disk-trig")
      mesh_M: list of boundary node counts, each an integer in
              8..MAX_MESH_M = 1024 ([16])
      tau: list of time steps; each must divide T evenly, in at most
           2**53 steps ([1/32])
      T: final time (1.0)
      mode: "direct" or "skew" ("direct")
      pressure_tol / concentration_tol: relative solver tolerances
      fd_step: manufactured-source finite difference step (1e-5)
      quad_degree: volume quadrature exactness, 1..6 (4)
      dump_fields: write VTK fields (false)
      dump_steps: extra step indices to dump ([])
      output_dir: report directory ("miscfem-out")

    Numbers must be finite; booleans never count as numbers.
    """
    if not isinstance(data, dict):
        raise ConfigError("<root>", "must be a JSON object")
    unknown = set(data) - _SCHEMA_KEYS
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")

    def _as_list(key, value):
        return value if isinstance(value, (list, tuple)) else [value]

    case = data.get("case", "disk-trig")
    if not isinstance(case, str) or case not in CASES:
        raise ConfigError("case", f"unknown case {case!r}; "
                                  f"registered: {sorted(CASES)}")

    mesh_sizes = _as_list("mesh_M", data.get("mesh_M", [16]))
    if not mesh_sizes:
        raise ConfigError("mesh_M", "must be a nonempty list")
    for i, m in enumerate(mesh_sizes):
        check_mesh_size(f"mesh_M[{i}]", m)

    final_time = data.get("T", 1.0)
    if not _is_number(final_time) or final_time <= 0:
        raise ConfigError("T", f"must be a finite positive number, got {final_time!r}")

    time_steps = _as_list("tau", data.get("tau", [1.0 / 32.0]))
    if not time_steps:
        raise ConfigError("tau", "must be a nonempty list")
    for i, tau in enumerate(time_steps):
        if not _is_number(tau) or tau <= 0:
            raise ConfigError(f"tau[{i}]", f"must be a finite positive number, got {tau!r}")
        steps = final_time / tau
        # above 2**53 every double is an integer, so the check below
        # would prove nothing
        if steps > 2.0 ** 53:
            raise ConfigError(f"tau[{i}]",
                              f"T/tau = {steps!r} exceeds 2**53 steps")
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
            raise ConfigError(f"tau[{i}]",
                              f"T/tau = {steps!r} is not an integer")

    mode = data.get("mode", "direct")
    if mode not in ("direct", "skew"):
        raise ConfigError("mode", f"must be 'direct' or 'skew', got {mode!r}")

    def _positive(key, default):
        v = data.get(key, default)
        if not _is_number(v) or v <= 0:
            raise ConfigError(key, f"must be a finite positive number, got {v!r}")
        return float(v)

    quad_degree = data.get("quad_degree", 4)
    if isinstance(quad_degree, bool) or quad_degree not in (1, 2, 3, 4, 5, 6):
        raise ConfigError("quad_degree", f"must be in 1..6, got {quad_degree!r}")

    dump_fields = data.get("dump_fields", False)
    if not isinstance(dump_fields, bool):
        raise ConfigError("dump_fields", "must be a boolean")
    dump_steps = data.get("dump_steps", [])
    if not isinstance(dump_steps, list) or \
            any(not isinstance(s, int) or isinstance(s, bool) or s < 0
                for s in dump_steps):
        raise ConfigError("dump_steps", "must be a list of step indices >= 0")
    output_dir = data.get("output_dir", "miscfem-out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "must be a nonempty string")

    return StudyConfig(case=case, mesh_sizes=tuple(mesh_sizes),
                       time_steps=tuple(time_steps), final_time=float(final_time),
                       mode=mode,
                       pressure_tol=_positive("pressure_tol", 1e-11),
                       concentration_tol=_positive("concentration_tol", 1e-10),
                       fd_step=_positive("fd_step", 1e-5),
                       quad_degree=int(quad_degree),
                       dump_fields=dump_fields, dump_steps=tuple(dump_steps),
                       output_dir=output_dir)


def load_config(path) -> StudyConfig:
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read {path}: "
                                    f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("<file>", f"not UTF-8 text at byte {exc.start}"
                          ) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON at line {exc.lineno}: "
                                    f"{exc.msg}") from exc
    except RecursionError as exc:   # the decoder recurses per nesting level
        raise ConfigError("<file>", "JSON nested too deeply") from exc
    return config_from_dict(data)


@dataclass
class RowResult:
    """One refinement row: errors plus solver/runtime bookkeeping."""

    mesh_size: int
    tau: float
    record: ErrorRecord
    runtime_seconds: float
    pressure_iterations: int
    concentration_iterations: int

    def row_dict(self) -> dict:
        d = {"M": self.mesh_size, "h": 1.0 / self.mesh_size, "tau": self.tau}
        d.update(asdict(self.record))
        d["runtime_seconds"] = self.runtime_seconds
        d["pressure_iterations_total"] = self.pressure_iterations
        d["concentration_iterations_total"] = self.concentration_iterations
        return d


# columns of the report: the four table columns first, extras after
_ERROR_COLUMNS = ("c_l2", "u_l2", "c_linf", "u_linf",
                  "c_h1semi", "p_l2", "p_grad_l4")
_ORDER_COLUMNS = ("c_l2", "u_l2", "c_linf", "u_linf")


@dataclass
class ConvergenceReport:
    kind: str                      # "spatial" or "temporal"
    case: str
    mode: str
    refinement_label: str          # "h" or "tau"
    refinement: list
    rows: list                     # of RowResult
    protocol_note: str = ""

    def orders(self):
        pairwise = {}
        headline = {}
        for col in _ORDER_COLUMNS:
            errs = [getattr(r.record, col) for r in self.rows]
            if len(errs) >= 2 and all(e > 0 for e in errs):
                o = observed_orders(errs)
                pairwise[col] = [float(v) for v in o]
                headline[col] = float(o[-1])
        return pairwise, headline

    def to_csv(self) -> str:
        lines = [",".join([self.refinement_label] + list(_ERROR_COLUMNS))]
        for value, row in zip(self.refinement, self.rows):
            cells = [_fmt(value)]
            cells += [_fmt(getattr(row.record, col)) for col in _ERROR_COLUMNS]
            lines.append(",".join(cells))
        pairwise, headline = self.orders()
        n_pairs = max((len(v) for v in pairwise.values()), default=0)
        for i in range(n_pairs):
            cells = [f"order_pair_{i + 1}"]
            for col in _ERROR_COLUMNS:
                v = pairwise.get(col)
                cells.append(f"{v[i]:.2f}" if v and i < len(v) else "")
            lines.append(",".join(cells))
        if headline:
            cells = ["order"]
            for col in _ERROR_COLUMNS:
                v = headline.get(col)
                cells.append(f"{v:.2f}" if v is not None else "")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        pairwise, headline = self.orders()
        return {"kind": self.kind, "case": self.case, "mode": self.mode,
                "protocol_note": self.protocol_note,
                "refinement_label": self.refinement_label,
                "refinement": list(self.refinement),
                "rows": [r.row_dict() for r in self.rows],
                "pairwise_orders": pairwise,
                "headline_orders": headline}


def _fmt(x: float) -> str:
    return f"{x:.4E}"   # five significant digits, table style


def simulate_row(config: StudyConfig, mesh_size: int, tau: float,
                 dump_dir=None) -> RowResult:
    """One full simulation at a given refinement; returns its errors."""
    sol = CASES[config.case]()
    coeffs = problem_coefficients(sol, fd_step=config.fd_step)
    mesh = generate_disk_mesh(sol.domain_center, sol.domain_radius, mesh_size)
    disc = build_discretization(mesh, config.quad_degree)
    num_steps = int(round(config.final_time / tau))
    grid = TimeGrid(final_time=config.final_time, num_steps=num_steps)
    options = SolverOptions(pressure_tol=config.pressure_tol,
                            concentration_tol=config.concentration_tol)

    observers = []
    if dump_dir is not None and config.dump_fields:
        wanted = set(config.dump_steps) | {num_steps}

        def dump(state):
            if state.step_index in wanted:
                _dump_state(dump_dir, mesh, disc, state)
        observers.append(dump)

    start = time.perf_counter()
    state, history = run(disc, coeffs, grid, mode=config.mode,
                         options=options, observers=observers)
    elapsed = time.perf_counter() - start
    record = measure_errors(disc, state, grid, sol)
    return RowResult(mesh_size=mesh_size, tau=tau, record=record,
                     runtime_seconds=elapsed,
                     pressure_iterations=sum(h.pressure_iterations
                                             for h in history),
                     concentration_iterations=sum(h.concentration_iterations
                                                  for h in history))


def _dump_state(out_dir, mesh, disc, state):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    speed = np.hypot(state.velocity.cell_values[..., 0],
                     state.velocity.cell_values[..., 1]).mean(axis=1)
    write_vtk(out_dir / f"fields_step{state.step_index}.vtk", mesh,
              point_scalars={
                  "concentration": state.concentration,
                  "pressure": state.pressure[:mesh.num_vertices]},
              cell_scalars={"speed": speed})


def _prepare_out(config: StudyConfig):
    out = make_output_dir("output_dir", config.output_dir)
    with open(out / "config-echo.json", "w") as f:
        json.dump(config.echo_dict(), f, indent=2, sort_keys=True)
        f.write("\n")
    return out


def run_single(config: StudyConfig):
    """One simulation at (mesh_M[0], tau[0]); writes report.json."""
    out = _prepare_out(config)
    row = simulate_row(config, config.mesh_sizes[0], config.time_steps[0],
                       dump_dir=out)
    report = {"kind": "single", "case": config.case, "mode": config.mode,
              "converged": True}
    report.update(row.row_dict())
    with open(out / "report.json", "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    return row


def _write_report(out, report: ConvergenceReport):
    with open(out / "report.csv", "w", newline="") as f:
        f.write(report.to_csv())
    with open(out / "report.json", "w") as f:
        json.dump(report.to_json_dict(), f, indent=2, sort_keys=True)
        f.write("\n")


def run_spatial_study(config: StudyConfig, note: str = "") -> ConvergenceReport:
    """Refine the mesh over mesh_M at fixed tau = tau[0]."""
    out = _prepare_out(config)
    tau = config.time_steps[0]
    rows = [simulate_row(config, M, tau,
                         dump_dir=out / f"M{M}" if config.dump_fields else None)
            for M in config.mesh_sizes]
    report = ConvergenceReport(kind="spatial", case=config.case,
                               mode=config.mode, refinement_label="h",
                               refinement=[1.0 / M for M in config.mesh_sizes],
                               rows=rows, protocol_note=note)
    _write_report(out, report)
    return report


def run_temporal_study(config: StudyConfig, note: str = "") -> ConvergenceReport:
    """Refine the time step over tau at fixed M = mesh_M[0]."""
    out = _prepare_out(config)
    M = config.mesh_sizes[0]
    rows = [simulate_row(config, M, tau,
                         dump_dir=out / f"tau{i}" if config.dump_fields else None)
            for i, tau in enumerate(config.time_steps)]
    report = ConvergenceReport(kind="temporal", case=config.case,
                               mode=config.mode, refinement_label="tau",
                               refinement=list(config.time_steps),
                               rows=rows, protocol_note=note)
    _write_report(out, report)
    return report
