"""Plain-text VTK output: header layout, counts, and value fidelity."""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest

from miscfem import write_vtk


def test_vtk_layout_and_roundtrip(tmp_path, mesh8, rng):
    V, T = mesh8.num_vertices, mesh8.num_triangles
    point_field = rng.standard_normal(V)
    cell_field = rng.standard_normal(T)
    path = tmp_path / "fields.vtk"
    write_vtk(path, mesh8, point_scalars={"concentration": point_field},
              cell_scalars={"speed": cell_field}, title="step 3")

    lines = path.read_text().splitlines()
    assert lines[0] == "# vtk DataFile Version 2.0"
    assert lines[1] == "step 3"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4] == f"POINTS {V} double"

    points = np.array([[float(tok) for tok in line.split()]
                       for line in lines[5:5 + V]])
    assert np.array_equal(points[:, :2], mesh8.vertices)
    assert np.all(points[:, 2] == 0.0)

    k = 5 + V
    assert lines[k] == f"CELLS {T} {4 * T}"
    cells = np.array([[int(tok) for tok in line.split()]
                      for line in lines[k + 1:k + 1 + T]])
    assert np.all(cells[:, 0] == 3)
    assert np.array_equal(cells[:, 1:], mesh8.triangles)

    k += 1 + T
    assert lines[k] == f"CELL_TYPES {T}"
    assert all(line == "5" for line in lines[k + 1:k + 1 + T])

    k += 1 + T
    assert lines[k] == f"POINT_DATA {V}"
    assert lines[k + 1] == "SCALARS concentration double 1"
    assert lines[k + 2] == "LOOKUP_TABLE default"
    values = np.array([float(line) for line in lines[k + 3:k + 3 + V]])
    # repr-formatted doubles survive the roundtrip bit for bit
    assert np.array_equal(values, point_field)

    k += 3 + V
    assert lines[k] == f"CELL_DATA {T}"
    assert lines[k + 1] == "SCALARS speed double 1"
    assert lines[k + 2] == "LOOKUP_TABLE default"
    cvalues = np.array([float(line) for line in lines[k + 3:k + 3 + T]])
    assert np.array_equal(cvalues, cell_field)
    assert k + 3 + T == len(lines)


def test_vtk_optional_sections(tmp_path, mesh8):
    path = tmp_path / "bare.vtk"
    write_vtk(path, mesh8)
    text = path.read_text()
    assert "POINT_DATA" not in text
    assert "CELL_DATA" not in text
    assert text.endswith("\n")


def test_vtk_rejects_misshapen_fields(tmp_path, mesh8):
    with pytest.raises(ValueError, match="point field 'c'"):
        write_vtk(tmp_path / "x.vtk", mesh8,
                  point_scalars={"c": np.zeros(3)})
    with pytest.raises(ValueError, match="cell field 'speed'"):
        write_vtk(tmp_path / "x.vtk", mesh8,
                  cell_scalars={"speed": np.zeros(mesh8.num_triangles + 1)})


def test_run_benchmark_demo_runs(tmp_path, capsys):
    """The hand-built pipeline of demos/run_benchmark.py marches to t = 1,
    prints its errors and writes its fields where it is told."""
    demo = Path(__file__).resolve().parents[1] / "demos" / "run_benchmark.py"
    out = tmp_path / "fields.vtk"
    runpy.run_path(str(demo))["main"](out)
    printed = capsys.readouterr().out
    assert "errors at t = 1:" in printed
    errors = {name: float(value) for name, value in re.findall(
        r"^ +(concentration|velocity|pressure) +L2 (\S+)", printed, re.M)}
    assert sorted(errors) == ["concentration", "pressure", "velocity"]
    assert all(0.0 < e < 0.1 for e in errors.values())
    assert f"wrote {out}" in printed
    lines = out.read_text().splitlines()
    assert lines[:3] == ["# vtk DataFile Version 2.0",
                         "disk benchmark, M=16, t=1", "ASCII"]
