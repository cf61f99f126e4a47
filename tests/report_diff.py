"""Compare the certify reports of two source trees: ``python tests/report_diff.py OLD_TREE NEW_TREE``.

Each tree's ``src`` runs ``python -m metaplectic certify --json`` at word lengths 5, 7 and 8 with seeds 20250405, 4
and 99, and at word length 2 with ``--tol 1e-30``.  For each setup the JSON report, stdout and exit code of the two
trees are compared, and each (check_id, field) that moved is printed as old -> new.  The exit code is 0 only when
every setup matches.  ``moved_fields`` also writes the golden-file test's failure message.
"""

import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

SETUPS = [*([f"--max-word-len={w}", f"--seed={s}"] for w in (5, 7, 8) for s in (20250405, 4, 99)),
          ["--max-word-len=2", "--tol=1e-30"]]


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
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
