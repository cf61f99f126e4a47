"""One workload process of the benchmark; ``run.py`` starts it fresh per call.

    python3 perfbench/worker.py setup      --workload NAME
    python3 perfbench/worker.py certify    --max-word-len N --seed S --json PATH [--trace PATH]
    python3 perfbench/worker.py eval-stream --seed S (--seconds T | --count N) [--trace PATH]

``setup`` prints the monotonic time at which the program became usable and a
speed probe, so the launcher can time a fresh start.  The other modes print
one JSON object as their last line; with ``--trace`` they also write the
aggregated spans there.  Times are in reference-speed seconds (calib.py);
eval-stream's ``--seconds`` counts program time at reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import sys
import time
from array import array
from pathlib import Path

from calib import SpeedLog, startup_probe
from proctree import cpu_s, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent

FORMS = ("eta", "eta_hat", "e4", "e6")
# forms defined on both half-planes accept determinant -1 elements (with R)
GL_FORMS = ("eta_hat", "e4", "e6")
IM_RANGE = (0.05, 2.0)
SLASH_SHARE = 0.5
BLOCK = 1000  # requests per block on eval-stream
# eval-stream reads peak RSS once this many requests are served (and serves at
# least this many), so the benchmark's own per-request buffers weigh the same
# however fast the program is
RSS_AT = 50_000
# relative agreement required between a served value and its independent route
REL_TOL = 1e-8


def import_program():
    """Import metaplectic from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import metaplectic

    if Path(metaplectic.__file__).resolve().parent != ROOT / "src" / "metaplectic":
        raise SystemExit(f"metaplectic imported from {metaplectic.__file__}, not from this checkout")
    return metaplectic


def build_forms(cfg) -> dict:
    from metaplectic.qseries import eisenstein_form, eta_form, eta_hat_form

    return {"eta": eta_form(cfg), "eta_hat": eta_hat_form(cfg),
            "e4": eisenstein_form(4, cfg), "e6": eisenstein_form(6, cfg)}


def word_cache_counts() -> tuple[int, int]:
    from metaplectic.automorphy import _word_data

    info = _word_data.cache_info()
    return info.hits, info.misses


def start_trace(args, speed: SpeedLog):
    """Install the tracer if asked; the speed probes get a span of their own,
    so their time stays out of the self time of the span they interrupt."""
    if not args.trace:
        return None
    from tracer import Tracer

    tracer = Tracer().install()
    speed.tick = tracer.wrap("probe", speed.tick)
    return tracer


def finish_trace(args, tracer, report: dict | None, factor: float) -> dict:
    """Per-layer metrics, seconds scaled to reference speed like the end-to-end ones."""
    from tracer import PER_LAYER

    metrics = tracer.layer_metrics(word_cache_counts(), report)
    metrics = {k: v * factor if PER_LAYER[k][0] == "s" else v for k, v in metrics.items()}
    Path(args.trace).write_text(json.dumps(
        {"metrics": metrics, "speed_factor": factor, "spans": tracer.spans()}, indent=1, sort_keys=True))
    return metrics


# ---------------------------------------------------------------------------
# certify

def run_certify(args) -> dict:
    import_program()
    from metaplectic import certify, cli

    argv = ["certify", "--max-word-len", str(args.max_word_len), "--seed", str(args.seed), "--json", args.json]
    speed = SpeedLog()
    tracer = start_trace(args, speed)
    with contextlib.redirect_stdout(io.StringIO()), speed.ticking():
        t0 = time.perf_counter()
        rc = cli.main(argv)
        t1 = time.perf_counter()
    raw_wall, wall = speed.span(t0, t1)
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
    data = Path(args.json).read_bytes()
    report = json.loads(data)
    out = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "probes": len(speed.ticks),
        "unscaled_stretches": speed.unscaled(),
        "peak_rss_mb": rss,
        "rc": rc,
        "sha256": hashlib.sha256(data).hexdigest(),
        "check_ids": [c["check_id"] for c in report["checks"]],
        "registry_ids": sorted(cid for cid, _ in certify.CHECKS),
        "failed_checks": [c["check_id"] for c in report["checks"] if not c["pass"]],
        "report_pass": report["pass"],
    }
    if tracer is not None:
        out["metrics"] = finish_trace(args, tracer, report, wall / raw_wall)
    return out


# ---------------------------------------------------------------------------
# eval-stream

def _mat_mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def _random_matrix(rng: random.Random, allow_reflection: bool):
    """Integer product of 1..4 blocks S*T^n, |n| <= 5, with one R inserted half the time if allowed."""
    blocks = []
    for _ in range(rng.randint(1, 4)):
        n = rng.randint(-5, 5)
        blocks.append(_mat_mul((0, -1, 1, 0), (1, n, 0, 1)))
    if allow_reflection and rng.random() < 0.5:
        blocks.insert(rng.randint(0, len(blocks)), (-1, 0, 0, 1))
    out = (1, 0, 0, 1)
    for b in blocks:
        out = _mat_mul(out, b)
    return out


def request_stream(seed: int):
    """Endless seeded stream of (form, matrix-or-None, eps, z).

    The point handed to the series (g.z, or its negative on the lower
    half-plane) has Im log-uniform in IM_RANGE; z itself is pulled back
    through g, so a slashed request can sit much closer to the real axis.
    """
    rng = random.Random(seed)
    lo, hi = math.log(IM_RANGE[0]), math.log(IM_RANGE[1])
    while True:
        name = rng.choice(FORMS)
        w = complex(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(lo, hi)))
        target = -w if name in GL_FORMS and rng.random() < 0.5 else w
        if rng.random() < SLASH_SHARE:
            a, b, c, d = _random_matrix(rng, name in GL_FORMS)
            det = a * d - b * c
            # inverse Moebius map of g = [[a, b], [c, d]] applied to the target
            z = (det * d * target - det * b) / (-det * c * target + det * a)
            yield name, (a, b, c, d), rng.choice((1, -1)), z
        else:
            yield name, None, 0, target


def _serve(forms, weights, request, mp):
    name, mat, eps, z = request
    form = forms[name]
    if mat is None:
        return form.at(z)
    x = mp.MetaElt(mp.Mat2(*mat), eps)
    return mp.slash(form.fn, weights[name], x).at(z)


def run_eval_stream(args) -> dict:
    mp = import_program()
    forms = build_forms(mp.qseries.DEFAULT_CONFIG)
    weights = {name: form.weight for name, form in forms.items()}
    speed = SpeedLog()
    tracer = start_trace(args, speed)
    stream = request_stream(args.seed)
    latencies = array("d")
    values = array("d")  # two complex components per request, zero-padded
    errors: list[str] = []
    raised = 0
    ends: list[int] = []  # index one past each block's last request
    speed.tick()
    clock = time.perf_counter
    busy = 0.0  # reference-speed seconds, so a slow host does not shorten the stream
    rss = None
    while True:
        done = len(latencies)
        if rss is None and done >= RSS_AT:
            rss = peak_rss_mb()
        if args.count is not None and done >= args.count:
            break
        if args.count is None and busy >= args.seconds and rss is not None:
            break
        size = BLOCK if args.count is None else min(BLOCK, args.count - done)
        # generated outside the timed calls; generation uses no program code
        for req in [next(stream) for _ in range(size)]:
            t0 = clock()
            try:
                v = _serve(forms, weights, req, mp)
            except Exception as exc:  # a raising request is counted as failed, not fatal
                latencies.append(clock() - t0)
                raised += 1
                if len(errors) < 5:
                    errors.append(f"{req!r}: {exc!r}")
                values.extend((math.nan,) * 4)
                continue
            latencies.append(clock() - t0)
            flat = [p for comp in v for p in (comp.real, comp.imag)]
            values.extend((flat + [0.0, 0.0])[:4])
        ends.append(len(latencies))
        speed.tick()
        busy += sum(latencies[done:]) * speed.factors()[-1]
    out = {"peak_rss_mb": peak_rss_mb() if rss is None else rss, "raised": raised, "errors": errors,
           "unscaled_stretches": speed.unscaled(),
           **latency_summary(latencies, ends, speed.factors())}
    if tracer is not None:
        tracer.uninstall()
        out["metrics"] = finish_trace(args, tracer, None, out["busy_s"] / out["raw"]["busy_s"])
    n = len(latencies)
    mismatched, worst = check_values(mp, args.seed, values, n)
    out.update(attempted=n, mismatched=mismatched, worst_rel_err=worst)
    return out


def latency_summary(latencies: array, ends: list[int], factors: list[float]) -> dict:
    """Reference-speed latency figures; each block is scaled by the probes around it."""
    scaled, block_s, block_p99, start = [], [], [], 0
    for end, f in zip(ends, factors):
        chunk = [x * f for x in latencies[start:end]]
        scaled.extend(chunk)
        if end - start == BLOCK:
            block_s.append(sum(chunk))
            block_p99.append(percentile(sorted(chunk), 0.99))
        start = end
    ordered, raw = sorted(scaled), sorted(latencies)
    return {
        "busy_s": sum(scaled),
        "p50_s": percentile(ordered, 0.5),
        "p99_s": percentile(ordered, 0.99),
        "block_p99_s": statistics.median(block_p99) if block_p99 else None,
        "block_s": statistics.median(block_s) if block_s else None,
        "blocks": len(block_s),
        "raw": {"busy_s": sum(latencies), "p50_s": percentile(raw, 0.5), "p99_s": percentile(raw, 0.99)},
    }


def percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def check_values(mp, seed: int, values: array, n: int) -> tuple[int, float]:
    """Recompute every served value by an independent route.

    Plain requests use the unreduced series; slashed ones use rep(x) @ f(z)
    with a config whose min_im admits the pulled-back, near-axis z.
    """
    from metaplectic.qseries import QSeriesConfig

    raw = build_forms(QSeriesConfig(min_im=IM_RANGE[0] / 2, reduce=False))
    near = build_forms(QSeriesConfig(tail_tolerance=1e-17, max_terms=2_000_000, min_im=1e-12))
    mismatched, worst = 0, 0.0
    stream = request_stream(seed)
    for i in range(n):
        name, mat, eps, z = next(stream)
        got = values[4 * i: 4 * i + 4]
        if math.isnan(got[0]):
            continue  # already counted as raised
        if mat is None:
            want = raw[name].at(z)
        else:
            form = near[name]
            want = form.rep.evaluate(mp.MetaElt(mp.Mat2(*mat), eps)) @ form.at(z)
        got = [complex(got[0], got[1]), complex(got[2], got[3])][:len(want)]
        err = max(abs(g - w) for g, w in zip(got, want)) / max(abs(w) for w in want)
        worst = max(worst, err)
        if not err <= REL_TOL:
            mismatched += 1
    return mismatched, worst


# ---------------------------------------------------------------------------

def run_setup(args) -> None:
    mp = import_program()
    if args.workload == "eval-stream":
        build_forms(mp.qseries.DEFAULT_CONFIG)
    ready = time.monotonic()
    cpu = cpu_s()
    # CLOCK_MONOTONIC is system-wide on Linux, so the launcher can subtract its spawn time
    print(json.dumps({"ready_monotonic": ready, "cpu_s": cpu, "probe_s": startup_probe()}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    st = sub.add_parser("setup")
    st.add_argument("--workload", required=True)
    cert = sub.add_parser("certify")
    cert.add_argument("--max-word-len", type=int, required=True)
    cert.add_argument("--seed", type=int, required=True)
    cert.add_argument("--json", required=True)
    cert.add_argument("--trace", default=None)
    ev = sub.add_parser("eval-stream")
    ev.add_argument("--seed", type=int, required=True)
    ev.add_argument("--seconds", type=float, default=None)
    ev.add_argument("--count", type=int, default=None)
    ev.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        run_setup(args)
        return 0
    if args.mode == "eval-stream" and (args.seconds is None) == (args.count is None):
        parser.error("eval-stream needs exactly one of --seconds and --count")
    result = run_certify(args) if args.mode == "certify" else run_eval_stream(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
