"""Tests of the benchmark's own arithmetic, contract and output gate."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibration  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402


def _phased_calibrator():
    """Reference samples every 0.1 s: 200 us before t = 5 s, 100 us after."""
    cal = calibration.Calibrator()
    for i in range(100):
        cal.stamps.append(0.1 * i)
        cal.samples.append(2e-4 if i < 50 else 1e-4)
    return cal


def test_calibrate_scales_by_the_reference():
    ref = calibration.CAL_REF_S
    assert calibration.calibrate(0.3, ref) == pytest.approx(0.3)
    assert calibration.calibrate(0.3, 2.0 * ref) == pytest.approx(0.15)
    with pytest.raises(ValueError):
        calibration.calibrate(0.3, 0.0)


def test_same_work_in_slow_and_fast_phase_calibrates_equal():
    cal = _phased_calibrator()
    assert cal.local_ref(1.0, 1.5) == 2e-4
    assert cal.local_ref(8.0, 8.5) == 1e-4
    slow = cal.calibrated(0.02, 1.0, 1.02)
    fast = cal.calibrated(0.01, 8.0, 8.01)
    assert slow == pytest.approx(fast)
    assert cal.slowdown() == pytest.approx(1.5e-4 / calibration.CAL_REF_S)


def test_local_ref_widens_beyond_the_run():
    cal = _phased_calibrator()
    assert cal.local_ref(100.0, 100.1) == 1e-4


def test_tick_bursts_once_enough_work_accumulates():
    calls = []
    cal = calibration.Calibrator(op=lambda: calls.append(1))
    cal.tick(0.4 * calibration.BURST_EVERY_S)
    assert not calls
    cal.tick(0.6 * calibration.BURST_EVERY_S)
    assert len(calls) == calibration.BURST_OPS == len(cal.samples)


def test_p90_needs_ten_samples_beyond_it():
    assert metrics.min_samples(90) == 100
    assert metrics.min_samples(50) == 20
    assert metrics.min_samples(99) == 1000
    with pytest.raises(ValueError):
        metrics.percentile(list(range(99)), 90)
    values = list(range(1, 101))
    p90 = metrics.percentile(values, 90)
    assert sum(v > p90 for v in values) >= metrics.MIN_TAIL_SAMPLES


def test_block_rate_ignores_a_stall_in_one_block():
    times = [0.01] * 100
    times[5] = 10.0
    assert harness.block_rate([1] * 100, times) == pytest.approx(100.0)


def test_render_requires_exactly_the_declared_metrics():
    values = {name: 1.0 for name in metrics.END_TO_END}
    assert set(metrics.render(values, metrics.END_TO_END)) == set(metrics.END_TO_END)
    with pytest.raises(KeyError):
        metrics.render(dict(values, extra=1.0), metrics.END_TO_END)
    del values["setup_s"]
    with pytest.raises(KeyError):
        metrics.render(values, metrics.END_TO_END)


def test_benchmark_json_matches_the_code_and_the_charset():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(metrics.NAME_RE.fullmatch(name) for name in names)
    assert all(metrics.UNIT_RE.fullmatch(m["unit"]) for m in e2e + layers)
    assert {m["name"]: m["unit"] for m in e2e} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in layers} == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == \
        list(run.WORKLOADS) == list(harness.TRACE_OPS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    bounds = {m["name"]: m["bound"] for m in e2e}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_op_streams_repeat_for_a_seed():
    for name in wl.WORKLOADS:
        first = [op for _, op in zip(range(12), wl.op_stream(name, 3))]
        again = [op for _, op in zip(range(12), wl.op_stream(name, 3))]
        other = [op for _, op in zip(range(12), wl.op_stream(name, 4))]
        assert first == again
        assert first != other


def test_gate_fires_on_a_corrupted_output_byte(tmp_path):
    cal = calibration.Calibrator()
    cal.burst()
    session = harness.Session(tmp_path, cal)
    op = next(wl.op_stream("ladder-sweep", 0))
    session.run([op])
    assert len(session.gate(op)) == 64
    table = session.first / "table.csv"
    data = bytearray(table.read_bytes())
    data[-2] ^= 1
    table.write_bytes(bytes(data))
    with pytest.raises(checks.GateError):
        session.gate(op)


def test_a_failed_check_exits_nonzero(monkeypatch, capsys):
    def corrupted(qclock, args):
        raise checks.GateError("repeating the first op changed the bytes of table.csv")

    monkeypatch.setattr(harness, "measure", corrupted)
    assert run.main(["--workload", "ladder-sweep", "--seed", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
