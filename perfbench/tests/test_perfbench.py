"""Tests of the benchmark's own logic: tail rule, self times, the span
recorder's bindings and the correctness gates.

    python3 -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from miscfem import forms, meshing, timestepping  # noqa: E402
from miscfem.errors import ErrorRecord  # noqa: E402


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("n", [20, 22, 31, 32, 96, 100, 191, 192, 256, 512,
                               1024, 5000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = np.random.default_rng(n).permutation(n).astype(float)
    p = run.tail_percentile(n)
    beyond = int(np.sum(samples > np.percentile(samples, p)))
    assert beyond == run.samples_beyond(n, p)
    assert beyond >= 10
    higher = [q for q in run.TAIL_CANDIDATES if q > p]
    if higher:
        assert np.sum(samples > np.percentile(samples, higher[0])) < 10


def test_tail_percentile_needs_enough_samples():
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50.0
    assert run.tail_percentile(3) is None
    assert run.tail_percentile(96) == 90.0
    assert run.tail_percentile(1024) == 95.0


def test_self_time_subtracts_direct_children_only():
    tree = [spans.Span("row", 0.0, 10.0, -1, 0),
            spans.Span("a", 1.0, 4.0, 0, 0),
            spans.Span("a.inner", 2.0, 3.0, 1, 0),
            spans.Span("b", 5.0, 9.0, 0, 0),
            spans.Span("b.inner", 5.5, 6.0, 3, 0),
            spans.Span("b.inner", 7.0, 8.5, 3, 0)]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 2.0,
                                                    0.5, 1.5])


def test_recorder_nests_spans_and_closes_them_on_error():
    recorder = spans.Recorder(bindings=())
    with pytest.raises(ZeroDivisionError):
        with recorder.span("outer"):
            with recorder.span("inner"):
                1 / 0
    outer, inner = recorder.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert outer.start <= inner.start <= inner.end <= outer.end


def _bound_names():
    return {(owner.__name__, attr): getattr(owner, attr)
            for owner, attr, _, _ in spans.BINDINGS}


def test_traced_row_records_layers_and_restores_bindings(reference):
    before = _bound_names()
    row = workloads.make_workload("advective-skew", 0, reference)
    row.steps = 2                  # a short march; the gate is not read
    recorder = spans.Recorder()
    recorder.row = 0
    with recorder, recorder.span("row"):
        assert timestepping.gmres is not before[("miscfem.timestepping",
                                                 "gmres")]
        result = row.row(recorder)
    assert _bound_names() == before
    names = {s.name for s in recorder.spans}
    assert {"meshing.generate", "elements.build_dofmap", "solvers.cg",
            "solvers.gmres", "dispersion.matrices", "timestepping.step",
            "coefficients.source_eval"} <= names
    values = spans.layer_metrics(recorder.spans, {0: result.counters})
    assert values["solvers.cg_iterations"] > 0
    assert values["manufactured.source_calls"] == 0
    assert 0.0 <= values["row_uncovered_share"] < 1.0
    assert set(values) | {"trace_overhead_share"} == {
        name for name, _, _ in spans.LAYER_METRICS}


def test_bindings_restored_when_a_row_raises():
    before = _bound_names()
    with pytest.raises(RuntimeError):
        with spans.Recorder():
            raise RuntimeError("row failed")
    assert _bound_names() == before
    assert forms.build_dofmap is before[("miscfem.forms", "build_dofmap")]
    assert meshing.generate_disk_mesh is before[("miscfem.meshing",
                                                 "generate_disk_mesh")]


def _record(values):
    return ErrorRecord(step_index=32, time=1.0, **values)


def test_column_gate_fails_a_one_percent_error(reference):
    want = reference["rows"]["temporal-row"]
    assert workloads.gate_columns(_record(want), want) == []
    for col in workloads.ERROR_COLUMNS:
        off = dict(want, **{col: want[col] * 1.01})
        failures = workloads.gate_columns(_record(off), want)
        assert len(failures) == 1 and failures[0].startswith(col)
    nan = dict(want, c_l2=math.nan)
    assert workloads.gate_columns(_record(nan), want)


def test_plume_gate_fails_a_rise_or_a_wrong_final_norm():
    norms = [0.07, 0.06, 0.05, 0.04]
    assert workloads.gate_plume(norms, 0.04) == []
    assert workloads.gate_plume([0.07, 0.0700001, 0.05, 0.04], 0.04)
    assert workloads.gate_plume(norms, 0.04 * 1.01)


class _Scripted:
    """Stand-in workload whose rows return prepared results."""

    def __init__(self, results):
        self.results = iter(results)

    def row(self, recorder=None):
        result = next(self.results)
        if isinstance(result, Exception):
            raise result
        return result


REF = probe.REFERENCE_S


def _parts(*parts, probes=None):
    """A row of set-up, one initial solve, one step and a final solve;
    the probe at its reference speed unless ``probes`` says otherwise."""
    if probes is None:
        probes = [REF] * (len(parts) + 1)
    return workloads.RowResult(parts_s=list(parts), probes_s=list(probes),
                               march=[1, 2, 3], steps=[2])


def test_failed_and_raising_rows_count_against_pass_share():
    ok, bad = _parts(0.1, 0.2, 0.3, 0.4), _parts(0.1, 0.2, 0.3, 0.4)
    bad.failures = ["c_l2 off"]
    rows, failed = [], 0
    for result in (ok, bad, RuntimeError("solver blew up")):
        got, traced, fails = run.run_rows(_Scripted([result]), 0.0, None)
        assert traced == [False]
        rows, failed = rows + got, failed + fails
    assert (len(rows), failed) == (3, 2)
    values, _ = run.end_to_end(rows, failed)
    assert values["pass_share"] == pytest.approx(1 / 3)
    assert set(values) == {name for name, _ in run.END_TO_END}


def test_row_figures_are_medians_over_rows():
    rows = [_parts(1.0, 1.0, 5.0, 1.0), _parts(2.0, 2.0, 1.0, 2.0),
            _parts(3.0, 0.5, 2.0, 0.5)]
    values, _ = run.end_to_end(rows, 0)
    assert values["row_s"] == pytest.approx(7.0)      # of 8, 7, 6
    assert values["setup_s"] == pytest.approx(2.0)
    assert values["solve_s"] == pytest.approx(5.0)    # of 7, 5, 3
    assert values["step_ms_p50"] == pytest.approx(2000.0)
    assert values["step_ms_tail"] == pytest.approx(5000.0)  # max: 3 steps


def test_parts_scale_with_the_probes_around_them():
    # The probe ran twice as slow around every part of the second row.
    fast = _parts(1.0, 1.0, 1.0, 1.0)
    slow = _parts(2.0, 2.0, 2.0, 2.0, probes=[2 * REF] * 5)
    assert slow.scaled_parts_s == pytest.approx(fast.scaled_parts_s)
    values, _ = run.end_to_end([fast, slow, slow], 0)
    assert values["row_s"] == pytest.approx(4.0)
    assert values["step_ms_p50"] == pytest.approx(1000.0)


def test_a_part_takes_the_median_probe_of_its_window():
    probes = [REF] * 12
    probes[5] = 50 * REF                 # one probe hit by an interrupt
    assert probe.scales(probes) == pytest.approx(np.ones(11))
    ramp = REF * np.arange(1.0, 13.0)
    scales = probe.scales(ramp)
    # part 5 lies between probes 5 and 6; its window is probes 2..9
    assert scales[5] == pytest.approx(1.0 / 6.5)
    assert scales[0] == pytest.approx(1.0 / 3.0)   # probes 0..4 at the edge


def test_clock_splits_parts_and_probes_them():
    calls = []

    def fake_probe():
        calls.append(1)
        return REF

    clock = workloads.Clock(fake_probe)
    for _ in range(6):                   # set-up, initial, 3 steps, final
        clock.split()
    result = clock.result(3)
    assert len(result.parts_s) == 6 and len(result.probes_s) == 7
    assert len(calls) == 7
    assert result.march == [1, 2, 3, 4, 5] and result.steps == [2, 3, 4]


def test_probe_is_positive_and_independent_of_the_program():
    probe_time = probe.Probe()()
    assert probe_time > 0.0
    source = Path(probe.__file__).read_text()
    assert "import miscfem" not in source and "from miscfem" not in source


def test_benchmark_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "temporal-row", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
