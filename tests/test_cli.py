"""Command-line front end: verbs, flag handling, outputs, exit codes."""

import contextlib
import dataclasses
import io
import json
import math
import pickle
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from miscfem import (CoefficientBlowupError, ConfigError,
                     MeshConstructionError, MeshFormatError, SolveReport,
                     StepFailure, cli, initialize, load_mesh,
                     problem_coefficients, studies)
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
    with pytest.raises(SystemExit) as info:
        main(["mesh-gen", "--config", str(cfg)])
    assert info.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--paper-exact"], ["run", "--fast"],
    ["mesh-gen", "--dump-fields"], ["mesh-gen", "--fast"],
    ["mesh-gen", "--paper-exact"]], ids=" ".join)
def test_flags_a_verb_does_not_read_exit_2(argv, capsys, monkeypatch):
    """Each verb takes only the flags it reads: argparse refuses the
    others before any work."""
    monkeypatch.setattr(cli, "generate_disk_mesh", _no_work)
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("case", "disk-trig"),
                                        ("mode", "skew")])
def test_old_config_keys_exit_2(key, value, tmp_path, capsys, monkeypatch):
    """A config written for the schema that had ``case`` and ``mode`` is
    refused with the key named, before any row."""
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    cfg = write_config(tmp_path, **{key: value})
    assert main(["study-temporal", "--config", str(cfg)]) == 2
    assert f"config field '{key}': unknown key" in capsys.readouterr().err


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def test_run_with_config(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "M=8" in out
    assert "c_l2=" in out
    report = json.loads((tmp_path / "out" / "report.json").read_text(),
                        parse_constant=_refuse_constant)
    assert report["kind"] == "single"
    assert not {"case", "mode", "converged"} & set(report)
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
    assert main(["study-spatial", "--config", str(cfg), "--paper-exact"]) == 2
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
    assert not {"case", "mode", "converged"} & set(report)
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


@pytest.mark.parametrize("verb", ["run", "study-spatial", "study-temporal",
                                  "mesh-gen"])
def test_empty_out_exits_2(verb, tmp_path, capsys, monkeypatch):
    """--out "" is refused like an empty output_dir, not taken for an
    absent --out, with or without --config."""
    monkeypatch.setattr(cli, "generate_disk_mesh", _no_work)
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    field = "'out'" if verb == "mesh-gen" else "'output_dir'"
    argvs = [[verb, "--out", ""]]
    if verb != "mesh-gen":
        argvs.append([verb, "--config", str(cfg), "--out", ""])
    for argv in argvs:
        assert main(argv) == 2
        assert field in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_output_dir_of_a_config_below_a_file_exits_2(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    (tmp_path / "blocker").write_text("")
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "blocker" / "x"))
    assert main(["run", "--config", str(cfg)]) == 2
    assert "'output_dir'" in capsys.readouterr().err


@pytest.mark.parametrize("verb, name", [
    ("run", "config-echo.json"), ("run", "report.json"),
    ("study-spatial", "report.csv"), ("study-spatial", "report.json"),
    ("study-temporal", "config-echo.json"), ("study-temporal", "report.csv")])
def test_report_name_taken_by_a_directory_exits_2(verb, name, tmp_path, capsys,
                                                 monkeypatch):
    """A directory where a report file goes is refused before any row is
    solved, not after the study as an IsADirectoryError."""
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    (tmp_path / "out" / name).mkdir(parents=True)
    assert main([verb, "--config", str(write_config(tmp_path))]) == 2
    err = capsys.readouterr().err
    assert "'output_dir'" in err
    assert name in err


@pytest.mark.parametrize("verb, taken", [
    ("study-spatial", "M8"), ("study-temporal", "tau0"),
    ("run", "fields_step2.vtk"), ("study-temporal", "tau0/fields_step1.vtk")])
def test_dump_path_taken_exits_2(verb, taken, tmp_path, capsys, monkeypatch):
    """With --dump-fields, a file where a dump directory goes, or a
    directory where a dump file goes, is refused before any row."""
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    blocker = tmp_path / "out" / taken
    blocker.parent.mkdir(parents=True)
    if taken.endswith(".vtk"):
        blocker.mkdir()
    else:
        blocker.write_text("")
    cfg = write_config(tmp_path, dump_steps=[1])
    assert main([verb, "--config", str(cfg), "--dump-fields"]) == 2
    assert taken.split("/")[-1] in capsys.readouterr().err


def test_dump_directories_made_before_any_row(tmp_path, monkeypatch):
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    cfg = write_config(tmp_path, mesh_M=[8, 12])
    with pytest.raises(AssertionError, match="work started"):
        main(["study-spatial", "--config", str(cfg), "--dump-fields"])
    assert (tmp_path / "out" / "M8").is_dir()
    assert (tmp_path / "out" / "M12").is_dir()


def test_output_dir_with_a_nul_byte_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(studies, "simulate_row", _no_work)
    cfg = write_config(tmp_path, output_dir="o\u0000x")
    assert main(["study-temporal", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'output_dir'" in err
    assert "null byte" in err


def test_mesh_gen_file_name_taken_by_a_directory_exits_2(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(cli, "generate_disk_mesh", _no_work)
    (tmp_path / "mesh_M8.json").mkdir()
    assert main(["mesh-gen", "--out", str(tmp_path), "--M", "8"]) == 2
    assert "mesh_M8.json" in capsys.readouterr().err


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
    """A tolerance no residual in double precision need reach ends as exit
    3, and the message gives the residual reached and the tolerance it
    missed."""
    cfg = write_config(tmp_path, pressure_tol=1e-300)
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "pressure" in err
    assert "iterations (tolerance 1e-300)" in err


def test_overflowing_transport_load_exits_3(tmp_path, capsys):
    """At tau = 1e-300, gamma/tau = 1e300 makes the 2-norm of the
    transport load vector overflow, which every residual of its solve
    would inherit: the step ends as a coefficient failure naming it."""
    cfg = write_config(tmp_path, tau=[1e-300], T=1e-300)
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert ("at step 1: concentration load vector has a 2-norm beyond the "
            "float range (gamma/tau = 1e+300)") in err


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


@pytest.mark.parametrize("key, value", [("quad_degree", 4),
                                        ("fd_step", 1e-5)])
def test_removed_config_key_exits_2(tmp_path, capsys, key, value):
    """The volume rule and the source step are constants of a run: a
    config holding either key, even at the value every run uses, is
    refused as an unknown key that the error names, before any solve."""
    cfg = write_config(tmp_path, **{key: value})
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"config field '{key}': unknown key" in err


def test_non_finite_errors_exit_3(tmp_path, capsys, monkeypatch):
    """At t = 1e300 the exact pressure overflows where the errors are
    measured: the run ends with exit 3 and a message naming the step and
    the column, with no numpy warning and no report holding NaN.  The
    march to T = tau = 1e300 does not get there: gamma/tau = 1e-300
    vanishes beside the dispersion, so the transport matrix of step 1 is
    singular in floating point, and assembly refuses it before any
    factorization, with and without the advective term (exit 3 naming
    step 1 and gamma/tau).  So the errors are then measured on the
    initial state carried to the final level without a transport
    solve."""
    cfg = write_config(tmp_path, tau=[1e300], T=1e300)
    for coupling in ("none", "advection"):
        monkeypatch.setattr(
            studies, "problem_coefficients",
            lambda sol, coupling=coupling, **kwargs: dataclasses.replace(
                problem_coefficients(sol, **kwargs),
                velocity_coupling=coupling))
        assert main(["run", "--config", str(cfg)]) == 3, coupling
        err = capsys.readouterr().err
        assert "at step 1" in err and "singular" in err, coupling
        assert "gamma/tau = 1e-300" in err, coupling
        assert not (tmp_path / "out" / "report.json").exists()

    def without_transport(disc, coeffs, grid, *, options, observers):
        state = initialize(disc, coeffs, grid, options)
        return dataclasses.replace(state, step_index=grid.num_steps), []

    monkeypatch.setattr(studies, "run", without_transport)
    assert main(["run", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "at step 1" in err
    assert "p_l2" in err
    assert not (tmp_path / "out" / "report.json").exists()


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


# obstacles the property may leave in the output directory "out" before a
# command runs: each name is made a file or a directory
_OUTPUT_NAMES = ("out", "out/config-echo.json", "out/report.csv",
                 "out/report.json", "out/M8", "out/tau0",
                 "out/fields_step2.vtk", "out/tau0/fields_step2.vtk",
                 "out/mesh_M8.json")


_DEFAULT_CONFIG = cli.default_config

# the flags each verb reads; argparse refuses the others
_VERB_FLAGS = {"run": {"--config", "--out", "--dump-fields"},
               "study-spatial": {"--config", "--out", "--dump-fields",
                                 "--fast", "--paper-exact"},
               "mesh-gen": {"--M", "--out"}}
_VERB_FLAGS["study-temporal"] = _VERB_FLAGS["study-spatial"]


def _tiny_default_config(verb, paper_exact, out_dir, dump_fields):
    """The built-in protocol of ``verb`` shrunk to one M=8 row of 2 steps."""
    full = _DEFAULT_CONFIG(verb, paper_exact, out_dir, dump_fields)
    return dataclasses.replace(full, mesh_sizes=(8,), time_steps=(0.25,),
                               final_time=0.5)


@settings(max_examples=250)
@given(verb=st.sampled_from(["run", "study-spatial", "study-temporal",
                             "mesh-gen"]),
       flags=st.sets(st.sampled_from(["--config", "--out", "--dump-fields",
                                      "--fast", "--paper-exact", "--M"])),
       stray=st.integers(0, 3).map(lambda k: k == 0),
       out=st.sampled_from(["out", "out/sub", ""]),
       M=st.sampled_from(["8", "5", "2048"]),
       config=st.fixed_dictionaries({
           "dump_fields": st.booleans(),
           "dump_steps": st.sampled_from([[], [1], [10 ** 300]]),
           "output_dir": st.sampled_from(["out", "o\u0000x", ""])}),
       obstacles=st.dictionaries(st.sampled_from(_OUTPUT_NAMES),
                                 st.sampled_from(["file", "dir"]),
                                 max_size=3))
def test_no_argv_ends_in_a_traceback(verb, flags, stray, out, M, config,
                                     obstacles):
    """Whatever the flags, the config and the files already in the output
    directory, main returns 0, 2 or 3, or argparse exits with 2.  A
    quarter of the draws keep flags the verb does not read; the rest
    reach the verb's own code."""
    if not stray:
        flags &= _VERB_FLAGS[verb]
    argv = [verb] + sorted(flags & {"--dump-fields", "--fast",
                                    "--paper-exact"})
    if "--out" in flags:
        argv += ["--out", out]
    if "--M" in flags and (verb == "mesh-gen" or M == "5"):
        # other verbs get only the stray "--M 5", which argparse refuses
        argv += ["--M", M]
    if "--config" in flags:
        argv += ["--config", "config.json"]
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp)
        mp.setattr(cli, "default_config", _tiny_default_config)
        Path("config.json").write_text(json.dumps(
            dict(config, mesh_M=[8], tau=[0.25], T=0.5)))
        for name, kind in sorted(obstacles.items()):
            try:
                if kind == "dir":
                    Path(name).mkdir(parents=True)
                else:
                    Path(name).parent.mkdir(parents=True, exist_ok=True)
                    Path(name).write_text("")
            except OSError:     # an earlier obstacle is in the way
                pass
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = "argparse" if exc.code == 2 else exc.code
    event(f"exit {code}")
    assert code in (0, 2, 3, "argparse"), argv


# positive finite doubles, subnormal to the largest, with the values
# where the run changes behaviour drawn often
_POSITIVE = st.floats(min_value=0.0, exclude_min=True,
                      allow_infinity=False) | st.sampled_from(
    [5e-324, 1e-300, 1e-160, 1e-17, 1e-5, 0.25, 1.0, 1e150, 1e300,
     1.7976931348623157e308])
_ERROR_FIELDS = ("c_l2", "u_l2", "c_linf", "u_linf", "c_h1semi", "p_l2",
                 "p_grad_l4")


@settings(max_examples=250)
@example(tau=1e-300, steps=1, pressure_tol=1e-11, concentration_tol=1e-10)
@example(tau=0.25, steps=2, pressure_tol=1e-300, concentration_tol=1e-10)
# the times of a march to T near the float maximum
@example(tau=4.49423283715579e+307, steps=2, pressure_tol=1.0,
         concentration_tol=1.0)
@given(tau=_POSITIVE, steps=st.integers(1, 3), pressure_tol=_POSITIVE,
       concentration_tol=_POSITIVE)
def test_numeric_extremes_end_in_a_documented_exit(tau, steps, pressure_tol,
                                                   concentration_tol):
    """Any positive tau (with T = steps * tau, which may overflow) and
    either tolerance, on one M=8 row, exits 0, 2 or 3 with no numpy
    warning; on exit 0 report.json is strict JSON and every error column
    is finite."""
    config = {"mesh_M": [8], "tau": [tau], "T": tau * steps,
              "pressure_tol": pressure_tol,
              "concentration_tol": concentration_tol, "output_dir": "out"}
    with tempfile.TemporaryDirectory() as tmp, \
            pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.chdir(tmp)
        Path("config.json").write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["run", "--config", "config.json"])
        report = Path("out/report.json")
        event(f"exit {code}")
        assert code in (0, 2, 3), err.getvalue()
        assert report.exists() == (code == 0), err.getvalue()
        if code == 0:
            row = json.loads(report.read_text(),
                             parse_constant=_refuse_constant)
            assert all(math.isfinite(row[c]) for c in _ERROR_FIELDS), row


@pytest.mark.parametrize("error", [
    StepFailure(3, "pressure", SolveReport(40, 2.5e-3, False)),
    StepFailure(5, "concentration", reason="LU factorization: singular"),
    ConfigError("mesh_M[0]", "must be an integer"),
    MeshFormatError("triangle 4 is degenerate", line=12),
    MeshConstructionError("Delaunay pass failed"),
    CoefficientBlowupError("at step 2: pressure matrix is not finite"),
], ids=lambda error: type(error).__name__)
def test_typed_errors_survive_pickling(error):
    """A typed error sent between processes keeps the message the CLI
    prints and every attribute it carries."""
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)
