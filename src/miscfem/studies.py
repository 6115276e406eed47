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
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .checks import check_number
from .elements import quadrature_rule
from .errors import ErrorRecord, measure_errors, observed_orders
from .forms import build_discretization, check_mode
from .manufactured import CASES, problem_coefficients
from .meshing import generate_disk_mesh
from .timestepping import SolverOptions, TimeGrid, run
from .vtkio import write_vtk


class ConfigError(ValueError):
    """Configuration violates the schema; ``path`` names the bad field."""

    def __init__(self, path, message):
        super().__init__(f"config field '{path}': {message}")
        self.path = path

    def __reduce__(self):
        # rebuild from the message and ``path``, not through __init__
        return type(self).__new__, (type(self), *self.args), self.__dict__


# Largest mesh resolution: four times the paper-exact M = 256, whose
# study already takes minutes; memory and run time grow as M^2.
MAX_MESH_M = 1024


@contextmanager
def _field(path):
    """A ValueError raised inside becomes a ConfigError for ``path``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def check_mesh_size(path, m) -> None:
    """Reject ``m`` unless it is an ``int`` mesh resolution in
    8..MAX_MESH_M (a bool, 0 or 1, is below that range)."""
    if not isinstance(m, int) or not 8 <= m <= MAX_MESH_M:
        raise ConfigError(path, f"must be an integer in 8..{MAX_MESH_M}, "
                                f"got {m!r}")


def make_output_dir(path, directory) -> Path:
    """Create ``directory`` (and its parents) for the outputs; a path that
    is empty, names a file, lies below one, holds a NUL byte or cannot be
    created is a ConfigError for the field ``path``."""
    if directory == "":     # Path("") would quietly mean "."
        raise ConfigError(path, "must be a nonempty path")
    out = Path(directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:    # ValueError: embedded NUL byte
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ConfigError(path, f"cannot create directory "
                                f"{str(directory)!r}: {reason}") from exc
    return out


def check_output_file(path, target: Path) -> Path:
    """Return ``target`` if a file can be written there; a directory (or
    anything but a regular file) of that name is a ConfigError for the
    field ``path``."""
    if target.exists() and not target.is_file():
        raise ConfigError(path, f"{str(target)!r} exists and is not a file")
    return target


# the fields whose JSON schema key differs from the field name
_SCHEMA_KEY = {"mesh_sizes": "mesh_M", "time_steps": "tau", "final_time": "T"}


@dataclass(frozen=True)
class StudyConfig:
    """Study/run configuration, validated on construction.

    The fields are the JSON schema of :func:`config_from_dict`, under the
    key names of ``_SCHEMA_KEY`` where those differ.  However a config is
    built (from JSON, directly or by :func:`dataclasses.replace`), a bad
    field is a ConfigError naming its schema key; numbers follow
    :func:`~miscfem.checks.check_number`.  A scalar mesh_M or tau stands
    for a one-element list."""

    case: str = "disk-trig"         # a registered benchmark name
    mesh_sizes: tuple = (16,)       # mesh_M: integers in 8..MAX_MESH_M
    time_steps: tuple = (1.0 / 32.0,)   # tau: each divides T, in <= 2**53 steps
    final_time: float = 1.0         # T
    mode: str = "direct"            # or "skew"
    pressure_tol: float = 1e-11     # relative solver tolerances
    concentration_tol: float = 1e-10
    fd_step: float = 1e-5           # manufactured-source finite difference step
    quad_degree: int = 4            # volume quadrature exactness, 1..6
    dump_fields: bool = False       # write VTK fields
    dump_steps: tuple = ()          # extra step indices; final step is implied
    output_dir: str = "miscfem-out"

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        if not isinstance(self.case, str) or self.case not in CASES:
            raise ConfigError("case", f"unknown case {self.case!r}; "
                                      f"registered: {sorted(CASES)}")
        for name in ("mesh_sizes", "time_steps"):
            value = getattr(self, name)
            put(name, tuple(value) if isinstance(value, (list, tuple))
                else (value,))

        if not self.mesh_sizes:
            raise ConfigError("mesh_M", "must be a nonempty list")
        for i, m in enumerate(self.mesh_sizes):
            check_mesh_size(f"mesh_M[{i}]", m)

        with _field("T"):
            put("final_time", float(check_number("T", self.final_time, above=0)))

        if not self.time_steps:
            raise ConfigError("tau", "must be a nonempty list")
        for i, tau in enumerate(self.time_steps):
            with _field(f"tau[{i}]"):
                steps = self.final_time / check_number(f"tau[{i}]", tau, above=0)
            # above 2**53 every double is an integer, so the check below
            # would prove nothing
            if steps > 2.0 ** 53:
                raise ConfigError(f"tau[{i}]",
                                  f"T/tau = {steps!r} exceeds 2**53 steps")
            if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0):
                raise ConfigError(f"tau[{i}]",
                                  f"T/tau = {steps!r} is not an integer")

        with _field("mode"):
            check_mode(self.mode)
        with _field("quad_degree"):
            quadrature_rule(self.quad_degree)
        put("quad_degree", int(self.quad_degree))
        if not isinstance(self.dump_fields, bool):
            raise ConfigError("dump_fields", "must be a boolean")
        if not isinstance(self.dump_steps, (list, tuple)) or \
                not all(isinstance(s, int) for s in self.dump_steps):
            raise ConfigError("dump_steps", "must be a list of step indices >= 0")
        with _field("dump_steps"):
            for i, s in enumerate(self.dump_steps):
                check_number(f"dump_steps[{i}]", s, at_least=0)
        put("dump_steps", tuple(self.dump_steps))
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir", "must be a nonempty string")

        for name in ("pressure_tol", "concentration_tol", "fd_step"):
            with _field(name):
                put(name, float(check_number(name, getattr(self, name), above=0)))

    def echo_dict(self) -> dict:
        """Schema-keyed dict of the full configuration.

        Uses the input schema's key names, so an echoed config can be fed
        back through ``--config`` / :func:`config_from_dict` verbatim."""
        return {_SCHEMA_KEY.get(name, name):
                list(value) if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}


def config_from_dict(data: dict) -> StudyConfig:
    """Build a :class:`StudyConfig` from a JSON-style dict keyed by the
    schema; every key is optional, and one outside the schema is a
    ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError("<root>", "must be a JSON object")
    field_of = {_SCHEMA_KEY.get(f.name, f.name): f.name
                for f in fields(StudyConfig)}
    unknown = set(data) - set(field_of)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown key")
    return StudyConfig(**{field_of[key]: v for key, v in data.items()})


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
    """One full simulation at a given refinement; returns its errors.

    With ``config.dump_fields``, VTK fields go to the existing directory
    ``dump_dir``."""
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
        wanted = _dump_steps(config, tau)

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


def _dump_steps(config: StudyConfig, tau: float) -> set:
    """Step indices whose fields a row with time step ``tau`` dumps: the
    listed ones that the row reaches, and its last."""
    last = int(round(config.final_time / tau))
    return {k for k in config.dump_steps if k <= last} | {last}


def _dump_state(out_dir, mesh, disc, state):
    speed = np.hypot(state.velocity[..., 0],
                     state.velocity[..., 1]).mean(axis=1)
    write_vtk(Path(out_dir) / f"fields_step{state.step_index}.vtk", mesh,
              point_scalars={
                  "concentration": state.concentration,
                  "pressure": state.pressure[:mesh.num_vertices]},
              cell_scalars={"speed": speed})


def _write_json(path, data):
    with open(path, "w") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def _run_rows(config: StudyConfig, reports, rows):
    """Check every output path before any mesh is built, write
    config-echo.json, then simulate the rows; returns the output
    directory and each row's :class:`RowResult`.

    ``reports`` names the report files the command writes and ``rows``
    lists (dump subdirectory, M, tau) per row.  A path that cannot be
    created, or a directory where a file goes, is a ConfigError."""
    out = make_output_dir("output_dir", config.output_dir)
    for name in ("config-echo.json",) + reports:
        check_output_file("output_dir", out / name)
    dump_dirs = [None] * len(rows)
    if config.dump_fields:
        for i, (sub, _, tau) in enumerate(rows):
            dump_dirs[i] = make_output_dir("output_dir", out / sub)
            for k in _dump_steps(config, tau):
                check_output_file("output_dir",
                                  dump_dirs[i] / f"fields_step{k}.vtk")
    _write_json(out / "config-echo.json", config.echo_dict())
    return out, [simulate_row(config, M, tau, dump_dir=d)
                 for (_, M, tau), d in zip(rows, dump_dirs)]


def run_single(config: StudyConfig):
    """One simulation at (mesh_M[0], tau[0]); writes report.json."""
    out, (row,) = _run_rows(config, ("report.json",), [
        ("", config.mesh_sizes[0], config.time_steps[0])])
    report = {"kind": "single", "case": config.case, "mode": config.mode,
              "converged": True}
    report.update(row.row_dict())
    _write_json(out / "report.json", report)
    return row


def _run_study(config, note, kind, label, rows) -> ConvergenceReport:
    """Simulate ``rows``, each (dump subdirectory, M, tau, refinement
    value), and write report.csv and report.json."""
    out, results = _run_rows(config, ("report.csv", "report.json"),
                             [row[:3] for row in rows])
    report = ConvergenceReport(kind=kind, case=config.case, mode=config.mode,
                               refinement_label=label,
                               refinement=[row[3] for row in rows],
                               rows=results, protocol_note=note)
    with open(out / "report.csv", "w", newline="") as f:
        f.write(report.to_csv())
    _write_json(out / "report.json", report.to_json_dict())
    return report


def run_spatial_study(config: StudyConfig, note: str = "") -> ConvergenceReport:
    """Refine the mesh over mesh_M at fixed tau = tau[0]."""
    return _run_study(config, note, "spatial", "h", [
        (f"M{M}", M, config.time_steps[0], 1.0 / M)
        for M in config.mesh_sizes])


def run_temporal_study(config: StudyConfig, note: str = "") -> ConvergenceReport:
    """Refine the time step over tau at fixed M = mesh_M[0]."""
    return _run_study(config, note, "temporal", "tau", [
        (f"tau{i}", config.mesh_sizes[0], tau, tau)
        for i, tau in enumerate(config.time_steps)])
