"""Command-line front end: verbs, flag handling, outputs, exit codes."""

import dataclasses
import json

import numpy as np
import pytest

from miscfem import cli, load_mesh, studies
from miscfem.cli import main
from miscfem.studies import MAX_MESH_M


def write_config(tmp_path, **extra):
    data = {"mesh_M": [8], "tau": [0.25], "T": 0.5,
            "output_dir": str(tmp_path / "out")}
    data.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_mesh_gen_writes_loadable_mesh(tmp_path, capsys):
    code = main(["mesh-gen", "--out", str(tmp_path), "--M", "12"])
    assert code == 0
    mesh = load_mesh(tmp_path / "mesh_M12.json")
    assert mesh.num_vertices > 12
    out = capsys.readouterr().out
    assert "mesh_M12.json" in out
    assert f"{mesh.num_vertices} vertices" in out


def test_mesh_gen_rejects_small_m(tmp_path, capsys):
    assert main(["mesh-gen", "--out", str(tmp_path), "--M", "5"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_mesh_gen_rejects_m_above_the_cap(tmp_path, capsys, monkeypatch):
    """The cap is checked before any mesh is built."""
    monkeypatch.setattr(cli, "generate_disk_mesh", _no_work)
    assert main(["mesh-gen", "--out", str(tmp_path),
                 "--M", str(MAX_MESH_M + 1)]) == 2
    assert f"8..{MAX_MESH_M}" in capsys.readouterr().err


def test_mesh_gen_rejects_config_flag(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["mesh-gen", "--config", str(cfg)]) == 2
    assert "--M" in capsys.readouterr().err


def test_run_with_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "M=8" in out
    assert "c_l2=" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["kind"] == "single"
    assert (tmp_path / "out" / "config-echo.json").is_file()


def test_out_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    override = tmp_path / "elsewhere"
    assert main(["run", "--config", str(cfg), "--out", str(override)]) == 0
    assert (override / "report.json").is_file()
    echo = json.loads((override / "config-echo.json").read_text())
    assert echo["output_dir"] == str(override)


def test_dump_fields_flag(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--dump-fields"]) == 0
    assert (tmp_path / "out" / "fields_step2.vtk").is_file()


def test_config_with_paper_exact_conflicts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg), "--paper-exact"]) == 2
    assert "--paper-exact" in capsys.readouterr().err


def test_fast_and_paper_exact_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["study-spatial", "--fast", "--paper-exact"])
    assert "not allowed with" in capsys.readouterr().err


def test_study_spatial_prints_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, mesh_M=[8, 16], tau=[0.125])
    assert main(["study-spatial", "--config", str(cfg)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0] == "h,c_l2,u_l2,c_linf,u_linf,c_h1semi,p_l2,p_grad_l4"
    assert any(line.startswith("order,") for line in out_lines)
    assert (tmp_path / "out" / "report.csv").is_file()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["kind"] == "spatial"
    assert "fast mode" not in report["protocol_note"]   # explicit config


def test_study_temporal_prints_csv(tmp_path, capsys):
    cfg = write_config(tmp_path, tau=[0.25, 0.125])
    assert main(["study-temporal", "--config", str(cfg)]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines[0].startswith("tau,")
    data = json.loads((tmp_path / "out" / "report.json").read_text())
    assert data["refinement"] == [0.25, 0.125]


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the inputs were checked")


@pytest.mark.parametrize("verb", ["run", "study-spatial", "study-temporal",
                                  "mesh-gen"])
def test_output_path_at_or_below_a_file_exits_2(verb, tmp_path, capsys,
                                                monkeypatch):
    """An --out that names a file, or lies below one, is a configuration
    error raised before any mesh is built or any row solved."""
    monkeypatch.setattr(cli, "generate_disk_mesh", _no_work)
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        assert main([verb, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert str(out) in err


def test_output_dir_of_a_config_below_a_file_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    (tmp_path / "blocker").write_text("")
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "blocker" / "x"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "'output_dir'" in capsys.readouterr().err


def test_invalid_config_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, mesh_M=[4])
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "mesh_M[0]" in err


def test_broken_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{bad json")
    assert main(["run", "--config", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_solver_failure_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, pressure_tol=1e-300)
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "pressure" in err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"mesh_M": [8], "T": NaN}')
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "'T'" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["run", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "missing.json" in err


def test_tiny_tau_exits_2(tmp_path, capsys):
    """T/tau above 2**53 is refused before any solve."""
    cfg = write_config(tmp_path, tau=[1e-300])
    assert main(["run", "--config", str(cfg)]) == 2
    assert "'tau[0]'" in capsys.readouterr().err


def test_viscosity_blowup_exits_3(tmp_path, capsys, monkeypatch):
    """A concentration that leaves the viscosity band ends as exit 3 with
    the step named, not as a traceback."""
    from miscfem import studies
    from miscfem.manufactured import problem_coefficients

    def wild_start(sol, **kwargs):
        coeffs = problem_coefficients(sol, **kwargs)
        return dataclasses.replace(
            coeffs, initial_concentration=lambda x, y: np.full(x.shape, 50.0))

    monkeypatch.setattr(studies, "problem_coefficients", wild_start)
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "coefficient failure" in err
    assert "at step 0" in err
