"""Config schema validation, report formatting oracles, and the study
pipeline end to end on desk-scale refinements."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from miscfem import (ConfigError, ConvergenceReport, ErrorRecord, RowResult,
                     StudyConfig, config_from_dict, load_config, run_single,
                     run_spatial_study, run_temporal_study, simulate_row,
                     timestepping)
from miscfem.studies import MAX_MESH_M


def test_defaults():
    cfg = config_from_dict({})
    assert cfg == StudyConfig()
    assert cfg.case == "disk-trig"
    assert cfg.mesh_sizes == (16,)
    assert cfg.time_steps == (1.0 / 32.0,)
    assert cfg.final_time == 1.0
    assert cfg.mode == "direct"
    assert cfg.quad_degree == 4
    assert not cfg.dump_fields


def test_mesh_size_cap_lies_above_the_paper_protocol():
    """The cap admits the paper-exact M = 256 and is checked without
    building a mesh."""
    assert MAX_MESH_M > 256
    assert config_from_dict({"mesh_M": [256, MAX_MESH_M]}).mesh_sizes == (
        256, MAX_MESH_M)


def test_scalars_are_listified():
    cfg = config_from_dict({"mesh_M": 32, "tau": 0.25})
    assert cfg.mesh_sizes == (32,)
    assert cfg.time_steps == (0.25,)


def test_echo_dict_roundtrips():
    cfg = config_from_dict({"mesh_M": [8, 16], "tau": [0.5, 0.25], "T": 2.0,
                            "mode": "skew", "quad_degree": 5,
                            "dump_fields": True, "dump_steps": [0, 2],
                            "output_dir": "elsewhere"})
    assert config_from_dict(cfg.echo_dict()) == cfg


# schema keys that differ from the StudyConfig field names
RENAMED = {"mesh_M": "mesh_sizes", "tau": "time_steps", "T": "final_time"}


@pytest.mark.parametrize("data,path", [
    ({"bogus": 1}, "bogus"),
    ({"case": "nope"}, "case"),
    ({"mesh_M": []}, "mesh_M"),
    ({"mesh_M": [16, 4]}, "mesh_M[1]"),
    ({"mesh_M": [True]}, "mesh_M[0]"),
    ({"mesh_M": [16.0]}, "mesh_M[0]"),
    ({"T": -1.0}, "T"),
    ({"T": "soon"}, "T"),
    ({"tau": []}, "tau"),
    ({"tau": [-0.1]}, "tau[0]"),
    ({"tau": [0.3]}, "tau[0]"),          # 1/0.3 steps is not an integer
    ({"tau": [0.5, 0.3]}, "tau[1]"),
    ({"mode": "explicit"}, "mode"),
    ({"pressure_tol": 0}, "pressure_tol"),
    ({"concentration_tol": -1e-9}, "concentration_tol"),
    ({"fd_step": 0}, "fd_step"),
    ({"quad_degree": 7}, "quad_degree"),
    ({"dump_fields": "yes"}, "dump_fields"),
    ({"dump_steps": [-1]}, "dump_steps"),
    ({"dump_steps": 3}, "dump_steps"),
    ({"output_dir": ""}, "output_dir"),
    ({"T": float("nan")}, "T"),
    ({"T": float("inf")}, "T"),
    ({"T": True}, "T"),
    ({"tau": [float("nan")]}, "tau[0]"),
    ({"tau": [True]}, "tau[0]"),
    ({"pressure_tol": float("nan")}, "pressure_tol"),
    ({"fd_step": float("inf")}, "fd_step"),
    ({"quad_degree": True}, "quad_degree"),
    ({"dump_steps": [True]}, "dump_steps"),
    ({"mesh_M": [8], "tau": [1e-300]}, "tau[0]"),   # T/tau above 2**53
    ({"T": 2.0 ** 60, "tau": [1.0]}, "tau[0]"),
    ({"T": 10 ** 400}, "T"),                       # beyond the float range
    ({"fd_step": 10 ** 400}, "fd_step"),
    ({"case": ["disk-trig"]}, "case"),
    ({"mesh_M": [16, MAX_MESH_M + 1]}, "mesh_M[1]"),
    ({"mesh_M": [10 ** 9]}, "mesh_M[0]"),
])
def test_schema_violations_name_the_field(data, path):
    """The same field is named whether the config comes from JSON or is
    built directly under the dataclass field names."""
    builders = [lambda: config_from_dict(data)]
    if path != "bogus":
        fields = {RENAMED.get(key, key): v for key, v in data.items()}
        builders.append(lambda: StudyConfig(**fields))
    for build in builders:
        with pytest.raises(ConfigError) as info:
            build()
        assert info.value.path == path
        assert f"config field '{path}'" in str(info.value)


def test_direct_construction_is_the_json_config():
    assert StudyConfig(mesh_sizes=[8, 16], time_steps=[0.25],
                       final_time=0.5) == config_from_dict(
        {"mesh_M": [8, 16], "tau": [0.25], "T": 0.5})
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(StudyConfig(), time_steps=(0.3,))
    assert info.value.path == "tau[0]"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8)
CONFIG_KEYS = st.sampled_from(["case", "mesh_M", "tau", "T", "mode",
                               "pressure_tol", "concentration_tol",
                               "fd_step", "quad_degree", "dump_fields",
                               "dump_steps", "output_dir"])


@given(st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=6))
def test_any_json_object_gives_config_or_config_error(data):
    """Whatever the JSON values, validation ends in a StudyConfig or a
    ConfigError, never in another exception."""
    try:
        cfg = config_from_dict(data)
    except ConfigError:
        return
    assert config_from_dict(cfg.echo_dict()) == cfg


def test_root_must_be_object():
    with pytest.raises(ConfigError) as info:
        config_from_dict([1, 2])
    assert info.value.path == "<root>"


def test_load_config_file(tmp_path):
    path = tmp_path / "study.json"
    path.write_text('{"mesh_M": [8], "tau": [0.125], "T": 0.5}')
    cfg = load_config(path)
    assert cfg.mesh_sizes == (8,)
    assert cfg.final_time == 0.5


def test_load_config_reports_missing_file(tmp_path):
    with pytest.raises(ConfigError) as info:
        load_config(tmp_path / "missing.json")
    assert info.value.path == "<file>"
    assert "missing.json" in str(info.value)


def test_load_config_reports_binary_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.path == "<file>"
    assert "not UTF-8 text at byte 0" in str(info.value)


def test_load_config_reports_deep_nesting(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ConfigError, match="nested too deeply"):
        load_config(path)


def test_load_config_reports_json_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "mesh_M": [8,]\n}\n')
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.path == "<file>"
    assert "invalid JSON at line" in str(info.value)


def synthetic_record(scale: float) -> ErrorRecord:
    return ErrorRecord(step_index=4, time=1.0,
                       c_l2=1.0e-2 * scale, c_linf=3.0e-2 * scale,
                       c_h1semi=1.0e-1 * scale,
                       u_l2=2.0e-2 * scale, u_linf=4.0e-2 * scale,
                       p_l2=5.0e-3 * scale, p_grad_l4=6.0e-3 * scale)


@pytest.fixture()
def synthetic_report():
    rows = [RowResult(16, 0.25, synthetic_record(1.0), 1.5, 10, 20),
            RowResult(32, 0.25, synthetic_record(0.25), 3.0, 12, 24)]
    return ConvergenceReport(kind="spatial", case="disk-trig", mode="direct",
                             refinement_label="h",
                             refinement=[1.0 / 16.0, 1.0 / 32.0], rows=rows)


def test_orders_of_synthetic_report(synthetic_report):
    pairwise, headline = synthetic_report.orders()
    for col in ("c_l2", "u_l2", "c_linf", "u_linf"):
        assert pairwise[col] == pytest.approx([2.0])
        assert headline[col] == pytest.approx(2.0)
    assert "p_l2" not in headline


def test_csv_layout_oracle(synthetic_report):
    lines = synthetic_report.to_csv().splitlines()
    assert lines[0] == "h,c_l2,u_l2,c_linf,u_linf,c_h1semi,p_l2,p_grad_l4"
    assert lines[1] == ("6.2500E-02,1.0000E-02,2.0000E-02,3.0000E-02,"
                        "4.0000E-02,1.0000E-01,5.0000E-03,6.0000E-03")
    assert lines[2] == ("3.1250E-02,2.5000E-03,5.0000E-03,7.5000E-03,"
                        "1.0000E-02,2.5000E-02,1.2500E-03,1.5000E-03")
    assert lines[3] == "order_pair_1,2.00,2.00,2.00,2.00,,,"
    assert lines[4] == "order,2.00,2.00,2.00,2.00,,,"
    assert len(lines) == 5
    assert synthetic_report.to_csv().endswith("\n")


def test_json_dict_of_synthetic_report(synthetic_report):
    d = synthetic_report.to_json_dict()
    assert d["kind"] == "spatial"
    assert d["refinement_label"] == "h"
    assert d["rows"][0]["M"] == 16
    assert d["rows"][0]["h"] == pytest.approx(1.0 / 16.0)
    assert d["rows"][0]["runtime_seconds"] == 1.5
    assert d["rows"][1]["concentration_iterations_total"] == 24
    assert d["headline_orders"]["c_l2"] == pytest.approx(2.0)
    json.dumps(d)   # must be serializable as-is


def test_simulate_row_bookkeeping(tmp_path):
    cfg = config_from_dict({"mesh_M": [8], "tau": [0.25], "T": 0.5,
                            "output_dir": str(tmp_path)})
    row = simulate_row(cfg, 8, 0.25)
    assert row.mesh_size == 8
    assert row.tau == 0.25
    assert row.runtime_seconds > 0.0
    assert row.pressure_iterations > 0
    assert row.concentration_iterations > 0
    assert np.isfinite(row.record.c_l2) and row.record.c_l2 > 0


def test_pressure_iterations_total_counts_every_pressure_solve(
        tmp_path, monkeypatch):
    """A row of N steps solves the pressure N + 1 times, levels 0 to N,
    and its ``pressure_iterations_total`` is the sum of the CG iterations
    those solves ran."""
    ran = []
    original = timestepping.cg_deflated

    def recording(*args, **kwargs):
        p, report = original(*args, **kwargs)
        ran.append(report.iterations)
        return p, report

    monkeypatch.setattr(timestepping, "cg_deflated", recording)
    cfg = config_from_dict({"mesh_M": [8], "tau": [0.125], "T": 0.5,
                            "output_dir": str(tmp_path)})
    row = simulate_row(cfg, 8, 0.125)
    assert len(ran) == 5
    assert row.pressure_iterations == sum(ran)


@pytest.fixture(scope="module")
def tiny_temporal(tmp_path_factory):
    out = tmp_path_factory.mktemp("temporal")
    cfg = config_from_dict({"mesh_M": [8], "tau": [0.25, 0.125], "T": 0.5,
                            "output_dir": str(out)})
    report = run_temporal_study(cfg, note="desk protocol")
    return cfg, out, report


def test_temporal_study_reports(tiny_temporal):
    cfg, out, report = tiny_temporal
    assert report.kind == "temporal"
    assert report.refinement_label == "tau"
    assert report.refinement == [0.25, 0.125]
    assert report.protocol_note == "desk protocol"
    for name in ("report.csv", "report.json", "config-echo.json"):
        assert (out / name).is_file()
    data = json.loads((out / "report.json").read_text())
    assert data["kind"] == "temporal"
    assert data["protocol_note"] == "desk protocol"
    assert [row["M"] for row in data["rows"]] == [8, 8]
    assert data["rows"][0]["tau"] == 0.25


def test_config_echo_file_is_reloadable(tiny_temporal):
    cfg, out, _ = tiny_temporal
    assert load_config(out / "config-echo.json") == cfg


def test_csv_reproducibility(tiny_temporal, tmp_path):
    """Identical configuration, fresh run: identical CSV bytes (timings
    live only in the JSON report)."""
    cfg, out, _ = tiny_temporal
    echo = json.loads((out / "config-echo.json").read_text())
    echo["output_dir"] = str(tmp_path)
    run_temporal_study(config_from_dict(echo), note="desk protocol")
    assert (tmp_path / "report.csv").read_bytes() == \
        (out / "report.csv").read_bytes()


def test_spatial_study_pipeline(tmp_path):
    # tau small enough that the first-order time error does not swamp
    # the spatial gap between the two meshes
    cfg = config_from_dict({"mesh_M": [8, 16], "tau": [1.0 / 64.0],
                            "T": 0.25, "output_dir": str(tmp_path),
                            "dump_fields": True, "dump_steps": [0]})
    report = run_spatial_study(cfg, note="two-point refinement")
    assert report.kind == "spatial"
    assert report.refinement == [1.0 / 8.0, 1.0 / 16.0]
    errs = [row.record for row in report.rows]
    assert errs[1].u_l2 < errs[0].u_l2
    assert errs[1].u_linf < errs[0].u_linf
    assert errs[1].c_l2 < errs[0].c_l2
    # per-row VTK dumps: requested step 0 plus the implied final step
    for M in (8, 16):
        assert (tmp_path / f"M{M}" / "fields_step0.vtk").is_file()
        assert (tmp_path / f"M{M}" / "fields_step16.vtk").is_file()
    header = (tmp_path / "M8" / "fields_step16.vtk").read_text().splitlines()[0]
    assert header == "# vtk DataFile Version 2.0"


def test_run_single_writes_report(tmp_path):
    cfg = config_from_dict({"mesh_M": [8], "tau": [0.25], "T": 0.5,
                            "output_dir": str(tmp_path),
                            "dump_fields": True})
    row = run_single(cfg)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["kind"] == "single"
    assert data["converged"] is True
    assert data["M"] == 8
    assert data["h"] == pytest.approx(0.125)
    assert data["c_l2"] == pytest.approx(row.record.c_l2)
    assert (tmp_path / "fields_step2.vtk").is_file()
    assert (tmp_path / "config-echo.json").is_file()


def test_spatial_report_matches_golden_file(tmp_path):
    """Refactor oracle: the CSV of a small spatial study, byte for byte.
    tests/data/spatial_report.csv was written by
    ``miscfem study-spatial --config`` with this configuration.  Each
    row's ``pressure_iterations_total`` stays at or below 66: the CG
    starts from the extrapolated pressure and is preconditioned by the
    lagged factor rescaled to each level's k/mu (a start from the last
    pressure on the unscaled factor gave 94 to 95).  The total counts
    each pressure solve of the row once, levels 0 to N, and these solves
    run 66 iterations; the bound was 65 while the total counted level 0
    twice and left out level N."""
    cfg = config_from_dict({"mesh_M": [8, 16, 32], "tau": [2.0 ** -10],
                            "T": 2.0 ** -5, "output_dir": str(tmp_path)})
    report = run_spatial_study(cfg)
    golden = Path(__file__).parent / "data" / "spatial_report.csv"
    assert (tmp_path / "report.csv").read_bytes() == golden.read_bytes()
    assert all(row.pressure_iterations <= 66 for row in report.rows)


def test_temporal_report_matches_golden_file(tmp_path):
    """Refactor oracle: the CSV of a small temporal study, byte for byte.
    tests/data/temporal_report.csv was written by
    ``miscfem study-temporal --config`` with this configuration.  On this
    mesh quadrature points lie within fd_step of the |u| kink x = t at
    t = 1/8, 1/2, 5/32 and 27/32, so the file also pins the sources there."""
    cfg = config_from_dict({"mesh_M": [48], "tau": [0.125, 0.0625, 0.03125],
                            "output_dir": str(tmp_path)})
    run_temporal_study(cfg)
    golden = Path(__file__).parent / "data" / "temporal_report.csv"
    assert (tmp_path / "report.csv").read_bytes() == golden.read_bytes()
