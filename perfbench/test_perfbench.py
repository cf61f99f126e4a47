"""Tests of the benchmark's own tracer and output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from array import array
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import proctree  # noqa: E402
import worker  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

mp = worker.import_program()


def _serve_all(requests, forms):
    weights = {name: form.weight for name, form in forms.items()}
    return [worker._serve(forms, weights, req, mp) for req in requests]


def test_plain_stream_counts_one_series_call_per_request():
    forms = worker.build_forms(mp.qseries.DEFAULT_CONFIG)
    # the reduction path builds its raw character lazily, once per process; do it before tracing
    mp.eta(0.1 + 0.1j)
    requests = list(islice((req for req in worker.request_stream(7) if req[1] is None), 20))
    tracer = Tracer().install()
    try:
        _serve_all(requests, forms)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    calls = lambda name: spans.get(name, {}).get("calls", 0)  # noqa: E731
    eta_requests = sum(name in ("eta", "eta_hat") for name, *_ in requests)
    eis_requests = sum(name in ("e4", "e6") for name, *_ in requests)
    assert 0 < eta_requests < 20
    assert calls("qseries.eta_reduced") + calls("qseries.eta_raw") == eta_requests
    assert calls("qseries.eisenstein") == eis_requests
    assert calls("slash.slash") == 0
    assert calls("slash.HoloFn.at") == 20
    assert not hasattr(mp.eta, "__wrapped__")


def test_uninstall_restores_every_binding():
    before = {name: getattr(mp, name) for name in ("eta", "slash", "cocycle", "word_decompose")}
    mul = mp.Mat2.__mul__
    tracer = Tracer().install()
    assert mp.eta is not before["eta"] and mp.qseries.eta is mp.eta
    tracer.uninstall()
    assert {name: getattr(mp, name) for name in before} == before
    assert mp.Mat2.__mul__ is mul


def _traced_worker(tmp: Path, *args: str) -> dict:
    path = tmp / "trace.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), *args, "--trace", str(path)],
                   check=True, capture_output=True, timeout=170)
    return json.loads(path.read_text())


@pytest.fixture
def out_dir():
    out = HERE / "out" / "test"
    out.mkdir(parents=True, exist_ok=True)
    return out


def test_traced_eval_stream_counts_repeat_exactly(out_dir):
    runs = [_traced_worker(out_dir, "eval-stream", "--seed", "11", "--count", "300") for _ in range(2)]
    counts = [{name: span["calls"] for name, span in run["spans"].items()} for run in runs]
    assert counts[0] == counts[1]
    assert counts[0]["slash.slash"] > 0
    assert runs[0]["metrics"]["input.reduced_share"] == runs[1]["metrics"]["input.reduced_share"]


def test_certify_trace_covers_every_check_once(out_dir):
    args = ("certify", "--max-word-len", "2", "--seed", "5", "--json", str(out_dir / "report.json"))
    trace = _traced_worker(out_dir, *args)
    checks = {name.rsplit(".", 1)[1]: span["calls"] for name, span in trace["spans"].items()
              if name.startswith("certify.check.")}
    registry = [cid for cid, _ in mp.certify.CHECKS]
    assert len(registry) == 33
    assert checks == {cid: 1 for cid in registry}
    assert trace["metrics"]["certify.checks_failed"] == 0


def test_reference_check_flags_a_wrong_value():
    forms = worker.build_forms(mp.qseries.DEFAULT_CONFIG)
    requests = list(islice(worker.request_stream(3), 40))
    values = array("d")
    for v in _serve_all(requests, forms):
        values.extend(([p for c in v for p in (c.real, c.imag)] + [0.0, 0.0])[:4])
    assert worker.check_values(mp, 3, values, 40)[0] == 0
    slashed = next(i for i, req in enumerate(requests) if req[1] is not None)
    values[4 * slashed] = -values[4 * slashed]
    values[4 * slashed + 1] = -values[4 * slashed + 1]
    assert worker.check_values(mp, 3, values, 40)[0] == 1


def test_parallel_stretch_is_left_unscaled():
    speed = calib.SpeedLog()
    probe = 2 * calib.NOMINAL_S  # a host at half the reference speed
    # (start, end, probe seconds, CPU before, CPU after): a one-CPU stretch, then a two-CPU one
    speed.ticks = [(0.0, 0.1, probe, 0.0, 0.1), (1.1, 1.2, probe, 1.0, 1.1), (2.2, 2.3, probe, 3.1, 3.2)]
    assert speed.factors() == [0.5, 1.0]
    assert speed.unscaled() == 1
    assert speed.span(0.0, 2.3) == pytest.approx((2.0, 1.5))


def test_process_tree_counts_a_live_child():
    code = "import time\nt = time.process_time()\nwhile time.process_time() - t < 0.3: pass\n" \
           "b = b'x' * (64 << 20)\nprint('ready', flush=True)\ntime.sleep(60)"
    cpu0, rss0 = proctree.cpu_s(), proctree.peak_rss_mb()
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline().strip() == "ready"
        assert child.pid in proctree.descendants()
        assert proctree.cpu_s() - cpu0 >= 0.25
        assert proctree.peak_rss_mb() - rss0 >= 60
    finally:
        child.kill()
        child.wait()


def test_benchmark_json_lists_the_tracer_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == PER_LAYER
