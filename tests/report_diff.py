"""Compare the certify reports of two source trees: ``python tests/report_diff.py OLD_TREE NEW_TREE``.

Each tree's ``src`` runs ``python -m metaplectic certify --json`` at word lengths 5, 7 and 8 with seeds 20250405, 4
and 99, and at word length 2 with ``--tol 1e-30``.  For each setup the JSON report, stdout and exit code of the two
trees are compared, and each (check_id, field) that moved is printed as old -> new.  Then each tree's own
``perfbench/worker.py`` serves the first ``STREAM_COUNT`` requests of the eval-stream workload's request stream on
that tree's ``src``, counting the requests that raise and those that ``check_values``, the benchmark's own 1e-8 rule,
calls mismatched; the replay matches when every served value is bit-identical and neither tree raised or mismatched.
The exit code is 0 only when every setup and the replay match.  ``moved_fields`` also writes the golden-file test's
failure message.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

SETUPS = [*([f"--max-word-len={w}", f"--seed={s}"] for w in (5, 7, 8) for s in (20250405, 4, 99)),
          ["--max-word-len=2", "--tol=1e-30"]]
STREAM_SEED, STREAM_COUNT = 20250405, 50_000  # perfbench's default seed

# Run in a process of its own with argv [tree, seed, count, out]: the tree's worker puts the tree's src first on
# the path, and each request is stored as its repr and its four served floats, NaN where it raised.
_SERVE_STREAM = """
import json, math, sys
from itertools import islice
tree, seed, count, out = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
sys.path.insert(0, tree + "/perfbench")
import worker
mp = worker.import_program()
forms = worker.build_forms(mp.qseries.DEFAULT_CONFIG)
weights = {name: form.weight for name, form in forms.items()}
served, raised = [], 0
for req in islice(worker.request_stream(seed), count):
    try:
        flat = [p for comp in worker._serve(forms, weights, req, mp) for p in (comp.real, comp.imag)]
    except Exception:
        raised, flat = raised + 1, [math.nan] * 4
    served.append([repr(req), *(flat + [0.0, 0.0])[:4]])
mismatched, worst = worker.check_values(mp, seed, [x for row in served for x in row[1:]], len(served))
with open(out, "w") as f:
    json.dump({"raised": raised, "mismatched": mismatched, "worst": worst, "served": served}, f)
"""


def moved_fields(want: str, got: str) -> list[str]:
    """Each (check_id, field) whose value differs between two report texts, with both values; a nested field
    is its dotted path, the report's own fields have check_id None, and a field one side lacks reads <absent>."""
    def leaves(value, path):
        if not isinstance(value, dict):
            return {path: value}
        return {key: leaf for name, x in value.items() for key, leaf in leaves(x, f"{path}.{name}".strip(".")).items()}

    def fields(text):
        report = json.loads(text)
        out = {(None, key): value for key, value in leaves({k: v for k, v in report.items() if k != "checks"}, "").items()}
        for check in report["checks"]:
            out.update({(check["check_id"], key): value for key, value in leaves(check, "").items()})
        return out

    old, new = fields(want), fields(got)
    return [f"{key}: {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}"
            for key in sorted(old.keys() | new.keys(), key=str) if old.get(key, "<absent>") != new.get(key, "<absent>")]


def _certify(tree: Path, setup: list[str], scratch: Path) -> tuple[str, str, int]:
    """The JSON report ("" if none was written), stdout and exit code of one certify run on ``tree``'s sources."""
    report = scratch / "report.json"
    report.unlink(missing_ok=True)
    done = subprocess.run([sys.executable, "-m", "metaplectic", "certify", *setup, "--json", str(report)],
                          cwd=scratch, env={**os.environ, "PYTHONPATH": str(tree.resolve() / "src")},
                          capture_output=True, text=True, check=False)
    return report.read_text() if report.exists() else "", done.stdout, done.returncode


def _differences(old: tuple[str, str, int], new: tuple[str, str, int]) -> list[str]:
    """What moved between two runs' (JSON, stdout, exit code), one line each; a report only one run wrote is
    named as such."""
    (old_json, old_out, old_code), (new_json, new_out, new_code) = old, new
    lines = []
    if old_json != new_json and not (old_json and new_json):
        lines.append(f"json: only the {'old' if old_json else 'new'} run wrote a report")
    elif old_json != new_json:
        lines += moved_fields(old_json, new_json) or ["json: the reports differ"]
    lines += [f"stdout: {a!r} -> {b!r}" for a, b in zip_longest(old_out.splitlines(), new_out.splitlines()) if a != b]
    if old_code != new_code:
        lines.append(f"exit code: {old_code} -> {new_code}")
    return lines


def _serve_stream(tree: Path, scratch: Path) -> dict:
    """The eval-stream replay of ``tree``: raised and mismatched counts, the worst relative error and each served
    request, or the replay's ``error`` if it exited nonzero."""
    out = scratch / "stream.json"
    done = subprocess.run([sys.executable, "-c", _SERVE_STREAM, str(tree.resolve()), str(STREAM_SEED),
                           str(STREAM_COUNT), str(out)],
                          cwd=scratch, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, check=False)
    if done.returncode:
        return {"error": f"the replay exited {done.returncode}: {(done.stderr.strip().splitlines() or [''])[-1]}"}
    return json.loads(out.read_text())


def _bits(row: list | None) -> list | None:
    """A served request with its floats as hex, so that NaN equals NaN and -0.0 differs from 0.0."""
    return row and [row[0], *map(float.hex, row[1:])]


def _relative_change(a: list | None, b: list | None) -> float:
    """max |new - old| / max |old| over one request's two served values, as ``check_values`` measures; inf where
    only one tree served the request, the trees served different requests or a value is NaN."""
    if a is None or b is None or a[0] != b[0]:
        return math.inf
    was, now = ([complex(*row[k:k + 2]) for k in (1, 3)] for row in (a, b))
    change = max(abs(x - y) for x, y in zip(was, now)) / max(map(abs, was))
    return change if change == change else math.inf


def _stream_differences(old: dict, new: dict) -> list[str]:
    """What keeps two eval-stream replays from matching, one line each: a tree whose replay failed, raised or
    mismatched, then the requests served differently bit for bit, with the largest relative change and the first."""
    runs = (("old", old), ("new", new))
    failed = [f"{side} tree: {run['error']}" for side, run in runs if "error" in run]
    if failed:
        return failed
    lines = [f"{side} tree: {run['raised']} raised, {run['mismatched']} mismatched (worst {run['worst']:.3g})"
             for side, run in runs if run["raised"] or run["mismatched"]]
    pairs = list(zip_longest(old["served"], new["served"]))
    moved = [(a, b) for a, b in pairs if _bits(a) != _bits(b)]
    if moved:
        largest = max(_relative_change(a, b) for a, b in moved)
        lines += [f"{len(moved)} of {len(pairs)} requests moved, largest relative change {largest:.3g}",
                  f"first moved: {moved[0][0]} -> {moved[0][1]}"]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    trees, same = [Path(tree) for tree in argv], True
    with tempfile.TemporaryDirectory() as scratch:
        for setup in SETUPS:
            lines = _differences(*(_certify(tree, setup, Path(scratch)) for tree in trees))
            print(f"{'MOVED' if lines else 'same '}  certify {' '.join(setup)}", *(f"\n      {x}" for x in lines), sep="")
            same = same and not lines
        lines = _stream_differences(*(_serve_stream(tree, Path(scratch)) for tree in trees))
        print(f"{'MOVED' if lines else 'same '}  eval-stream, first {STREAM_COUNT} requests of seed {STREAM_SEED}",
              *(f"\n      {x}" for x in lines), sep="")
    return 0 if same and not lines else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
