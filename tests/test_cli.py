import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from metaplectic.cli import main
from metaplectic.sampling import format_complex, parse_complex, upper_grid
from metaplectic.errors import DomainError
from metaplectic.qseries import DEFAULT_CONFIG, NAMED_FORMS, triangular_product


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_complex_round_trip():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("-0.5-2i") == -0.5 - 2j
    assert parse_complex("1.25") == 1.25
    assert parse_complex("2i") == 2j
    assert parse_complex("1e-3+2.5i") == 1e-3 + 2.5j
    z = -0.73 + 1.4e-3j
    assert abs(parse_complex(format_complex(z)) - z) < 1e-12
    for bad in ("", "abc", "1+2"):
        with pytest.raises(DomainError):
            parse_complex(bad)


def test_eval_word_product(capsys):
    code, out, _ = run_cli(capsys, "eval", "--elem", "R R")
    assert code == 0
    assert out.strip() == "[[1,0],[0,1]];-1"


def test_eval_matrix_with_sign(capsys):
    code, out, _ = run_cli(capsys, "eval", "--matrix", "[[0,-1],[1,0]]", "--sign", "-1")
    assert code == 0
    assert out.strip() == "[[0,-1],[1,0]];-1"


def test_eval_refuses_a_sign_without_a_matrix(capsys):
    """--sign is the cover sign of --matrix: it is refused anywhere else, and --matrix alone takes +1."""
    for argv in (("--elem", "S", "--sign", "-1"), ("--elem", "S", "--sign", "1"),
                 ("--form", "eta", "--z", "0.1+1i", "--sign", "-1"), ("--sign", "-1")):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert code == 2 and out == "" and "--sign is the cover sign of --matrix and needs it" in err
    assert run_cli(capsys, "eval", "--matrix", "[[0,-1],[1,0]]")[:2] == (0, "[[0,-1],[1,0]];+1\n")


def test_eval_element_refuses_a_point(capsys):
    """An element is printed, not evaluated: --z with --elem or --matrix is refused, as --form is."""
    for argv in (("--elem", "S T"), ("--matrix", "[[0,-1],[1,0]]")):
        for extra in (("--z", "0+1i"), ("--form", "eta"), ("--form", "eta", "--z", "0+1i")):
            code, out, err = run_cli(capsys, "eval", *argv, *extra)
            assert code == 2 and out == "" and "--elem/--matrix and --form/--z are mutually exclusive" in err


def test_eval_eta(capsys):
    code, out, _ = run_cli(capsys, "eval", "--form", "eta", "--z", "0+1i")
    assert code == 0
    assert out.strip().startswith("0.768225422326")


def test_eval_eta_hat_lower(capsys):
    code, out, _ = run_cli(capsys, "eval", "--form", "eta-hat", "--z", "0-1i")
    assert code == 0
    assert out.strip().startswith("(0+0i, 0+0.768225422326")


def test_eval_triangular(capsys):
    code, out, _ = run_cli(capsys, "eval", "--form", "zn:0", "--z", "0.4+0.8i")
    assert code == 0
    assert out.strip() == "1+0i"
    # the product is entire, so a point on the real axis is still evaluated
    code, out, _ = run_cli(capsys, "eval", "--form", "zn:3", "--z", "0.25")
    assert code == 0
    assert parse_complex(out.strip()) == pytest.approx(triangular_product(3, 0.25))


def test_unknown_form_error_names_every_named_form(capsys):
    code, out, err = run_cli(capsys, "eval", "--form", "nope", "--z", "1i")
    assert code == 2 and out == ""
    assert all(name in err for name in NAMED_FORMS) and "zn:N" in err


def test_eval_takes_a_negative_real_part_through_the_equals_spelling(capsys):
    """argparse reads a value that starts with '-' as an option, so --z=a+bi carries Re z < 0."""
    z = next(p for p in upper_grid() if p.real < 0)
    code, out, _ = run_cli(capsys, "eval", "--form", "e6", f"--z={format_complex(z)}")
    assert code == 0 and out.strip() == format_complex(NAMED_FORMS["e6"](DEFAULT_CONFIG).at(z)[0])


def test_eval_takes_a_huge_real_part_off_exactly(capsys):
    """eta(z + r) = e^(2 pi i r/24) eta(z) for an integer r, and every factor of zn:N has period 2: 1e12 is 16
    mod 24, so eta(1e12 + i) = e^(2 pi i 16/24) eta(i) and eta-hat(1e12 - i) = (0, i e^(2 pi i 8/24) eta(i)),
    and zn:N at 1e200 + i and 1e308 + i is its value at i, 2 sinh(pi) for N = 1."""
    eta_i, third = 0.7682254223260566590025941795761806445179, np.exp(2j * np.pi / 3)
    eta_far, zn1 = format_complex(third ** 2 * eta_i), format_complex(complex(2 * np.sinh(np.pi)))
    assert (eta_far, zn1) == ("-0.384112711163-0.665302731567i", "23.0974787145+0i")
    for form, z, shown in (("eta", "1e12+1i", eta_far),
                           ("eta-hat", "1e12-1i", f"(0+0i, {format_complex(1j * third * eta_i)})"),
                           ("zn:1", "1e200+1i", zn1), ("zn:3", "1e308+1i", format_complex(triangular_product(3, 1j)))):
        code, out, _ = run_cli(capsys, "eval", "--form", form, "--z", z)
        assert (code, out) == (0, shown + "\n"), form


def test_eval_usage_errors(capsys):
    assert run_cli(capsys, "eval", "--form", "nope", "--z", "1i")[0] == 2
    assert run_cli(capsys, "eval", "--form", "eta", "--z", "0.5")[0] == 2  # on the axis
    assert run_cli(capsys, "eval", "--form", "eta", "--z", "0-1i")[0] == 2  # lower half
    for form, z, shown in (("eta", "0.1+nani", "(0.1+nanj)"), ("e4", "0.1+1e400i", "(0.1+infj)"),
                           ("zn:3", "0.1+nani", "(0.1+nanj)"), ("zn:0", "nan", "(nan+0j)")):
        code, out, err = run_cli(capsys, "eval", "--form", form, "--z", z)
        assert code == 2 and out == ""
        assert f"point {shown} is not a finite complex number" in err
    # the product is finite, but beyond the floating-point range: refused, not printed as NaN
    # and so is a series whose exponent 2 pi i z n overflows at a huge imaginary part
    for form, z in (("zn:200", "0+1i"), ("zn:60", "0.5+3i"), ("zn:400", "0+1i"), ("zn:3", "0.5+1e308i"),
                    ("eta", "0.3+1e308i"), ("e4", "0.2+3e307i"), ("eta-hat", "0.3-1e308i")):
        code, out, err = run_cli(capsys, "eval", "--form", form, "--z", z)
        assert code == 2 and out == "" and "leaves the floating-point range" in err, form
    assert run_cli(capsys, "eval", "--elem", "Q")[0] == 2
    assert run_cli(capsys, "eval")[0] == 2
    assert run_cli(capsys, "bogus-command")[0] == 2


def test_check_eta_shift(capsys):
    code, out, _ = run_cli(capsys, "check", "--form", "eta", "--elem", "T")
    assert code == 0
    assert "PASS" in out
    residual = float(out.split("residual=")[1].split()[0])
    assert residual < 1e-12


def test_check_e4_inversion(capsys):
    code, out, _ = run_cli(capsys, "check", "--form", "e4", "--elem", "S")
    assert code == 0
    residual = float(out.split("residual=")[1].split()[0])
    assert residual < 1e-9


def test_check_eta_hat_reflection_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--form", "eta-hat", "--elem", "R", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True and payload["weight"] == 1  # the form's own doubled weight
    assert payload["residual"] < 1e-9


def test_check_with_rep_file(capsys, tmp_path):
    from metaplectic.qseries import eta_character
    from metaplectic.slash import Weight

    path = tmp_path / "rep.json"
    eta_character().induce(Weight(1)).save(path)
    code, out, _ = run_cli(capsys, "check", "--form", "eta-hat", "--elem", "R T", "--rep", str(path))
    assert code == 0 and "PASS" in out


def test_check_usage_errors(capsys, tmp_path):
    from metaplectic.qseries import eta_character
    from metaplectic.slash import Weight

    # the weight is the form's own: --weight is no option
    code, out, err = run_cli(capsys, "check", "--form", "eta", "--weight", "1", "--elem", "T")
    assert code == 2 and out == "" and "unrecognized arguments: --weight 1" in err
    # eta is upper-only; determinant -1 cannot be checked
    assert run_cli(capsys, "check", "--form", "eta", "--elem", "R")[0] == 2
    # zn is not modular
    assert run_cli(capsys, "check", "--form", "zn:3", "--elem", "T")[0] == 2
    # a 2-dimensional SL rep against the scalar eta
    path = tmp_path / "rep2.json"
    eta_character().induce(Weight(1)).restrict().save(path)
    code, out, err = run_cli(capsys, "check", "--form", "eta", "--elem", "T", "--rep", str(path))
    assert code == 2 and out == ""
    assert "representation has dimension 2, form 'eta' has dimension 1" in err


def test_certify_degenerate_universe(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "certify", "--max-word-len", "0", "--json", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["pass"] is True
    assert report["version"] == "1"
    ids = [c["check_id"] for c in report["checks"]]
    assert ids == sorted(ids)
    for check in report["checks"]:
        assert set(check) == {"check_id", "params", "universe", "max_residual", "pass", "counterexample"}
        assert check["pass"] is True
        assert check["counterexample"] is None


def test_certify_beyond_the_enumeration_bound_names_the_flag(capsys):
    """A word length past ENUMERATION_LIMIT exits 2 without a report, and the message names --force."""
    code, out, err = run_cli(capsys, "certify", "--max-word-len", "9")
    assert code == 2 and out == ""
    assert err == ("error: enumeration depth 9 exceeds the configured bound 8; "
                   "pass force=True (the CLI's --force) to override\n")


def test_certify_impossible_tolerance(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "certify", "--max-word-len", "2",
                           "--tol", "1e-30", "--json", str(out_path))
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["pass"] is False
    failed = [c for c in report["checks"] if not c["pass"]]
    assert failed
    # exact sign algebra is immune to the numeric tolerance override
    exact_ids = {c["check_id"] for c in report["checks"] if c["max_residual"] == "exact"}
    assert "algebra_cocycle_triples" in exact_ids
    for check in failed:
        assert check["counterexample"] is not None
    # every failing numeric check names its witness, the induction-matrix check included
    placeholder = {"detail": "no witness captured; see params"}
    assert [c["check_id"] for c in failed if c["counterexample"] == placeholder] == []


def test_certify_reports_are_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "certify", "--max-word-len", "2", "--json", str(a))[0] == 0
    assert run_cli(capsys, "certify", "--max-word-len", "2", "--json", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_certify_with_sample_file(capsys, tmp_path):
    samples = tmp_path / "samples.json"
    samples.write_text(json.dumps(["0.1+0.9i", "-0.4+1.4i", "0.8+2.1i"]))
    code, out, _ = run_cli(capsys, "certify", "--max-word-len", "2", "--samples", str(samples))
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert run_cli(capsys, "certify", "--max-word-len", "2", "--samples", str(bad))[0] == 2
    lower = tmp_path / "lower.json"
    lower.write_text(json.dumps(["0.3-0.8i", "0.1+0.9i"]))
    code, out, err = run_cli(capsys, "certify", "--max-word-len", "2", "--samples", str(lower))
    assert code == 2
    assert out == ""  # refused before any check runs
    assert "point (0.3-0.8j) is not in the upper half-plane" in err
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(["0.1+0.9i", "0.3+nani"]))
    code, out, err = run_cli(capsys, "certify", "--max-word-len", "2", "--samples", str(nan))
    assert code == 2
    assert out == ""  # refused before any check runs
    assert "point (0.3+nanj) is not a finite complex number" in err


def test_certify_only_runs_the_named_checks(capsys, tmp_path):
    """``--only`` runs the named checks, and each one's report is the one it has in the full run; an id that
    names no check exits 2 before any check runs."""
    full, alone = tmp_path / "full.json", tmp_path / "alone.json"
    assert run_cli(capsys, "certify", "--max-word-len", "4", "--json", str(full))[0] == 0
    code, out, _ = run_cli(capsys, "certify", "--max-word-len", "4", "--only", "algebra_cocycle_triples",
                           "--json", str(alone))
    assert code == 0 and out.splitlines()[-1] == "PASS  overall (1 checks)"
    (check,) = json.loads(alone.read_text())["checks"]
    assert check == {c["check_id"]: c for c in json.loads(full.read_text())["checks"]}["algebra_cocycle_triples"]
    code, out, _ = run_cli(capsys, "certify", "--max-word-len", "0", "--only", "algebra_unit_values,rep_well_defined")
    assert code == 0 and out.splitlines()[-1] == "PASS  overall (2 checks)"
    code, out, err = run_cli(capsys, "certify", "--max-word-len", "0", "--only", "algebra_unit_values,no_such_check")
    assert (code, out, err) == (2, "", "error: unknown check ids: no_such_check\n")


def test_certify_refuses_an_empty_only(capsys):
    assert run_cli(capsys, "certify", "--max-word-len", "0", "--only", "") == (2, "", "error: check filter names no check\n")
    # an empty id beside a named one is named as such
    assert run_cli(capsys, "certify", "--max-word-len", "0", "--only", "algebra_unit_values,") == (
        2, "", "error: unknown check ids: ''\n")


def test_certify_refuses_a_negative_seed(capsys, tmp_path):
    """A negative seed is a usage error, exit 2 with one line naming it, not a failed check."""
    out_path = tmp_path / "report.json"
    assert run_cli(capsys, "certify", "--max-word-len", "0", "--seed", "-1", "--json", str(out_path)) == (
        2, "", "error: seed must be at least 0, got -1\n")
    assert not out_path.exists()


def test_certify_depth_bound(capsys):
    assert run_cli(capsys, "certify", "--max-word-len", "9")[0] == 2
    for pairs in ("-1", "0"):
        code, out, err = run_cli(capsys, "certify", "--max-word-len", "0", "--pairs", pairs)
        assert code == 2
        assert out == ""  # refused before any check runs
        assert f"pair count must be at least 1, got {pairs}" in err
    # refused before numpy is asked for the 1.46 TiB of pair draws
    assert run_cli(capsys, "certify", "--max-word-len", "1", "--pairs", "99999999999") == (
        2, "", "error: pair count 99999999999 is above the cap 1000000\n")


def test_non_finite_tolerance_is_refused(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    for tol in ("nan", "inf"):
        message = f"tolerance must be a finite number, got {float(tol)}"
        code, out, err = run_cli(capsys, "certify", "--max-word-len", "0", "--tol", tol, "--json", str(out_path))
        assert code == 2 and out == "" and message in err
        assert not out_path.exists()  # refused before any check runs
        code, out, err = run_cli(capsys, "check", "--form", "eta", "--elem", "T", "--tol", tol)
        assert code == 2 and out == "" and message in err
    # a negative one would fail even an exact zero residual
    message = "tolerance must be nonnegative, got -1.0"
    for argv in (("certify", "--max-word-len", "0", "--json", str(out_path)),
                 ("check", "--form", "e4", "--elem", "S")):
        code, out, err = run_cli(capsys, *argv, "--tol", "-1")
        assert code == 2 and out == "" and message in err, argv
        assert not out_path.exists()
    # a non-finite near-axis threshold would switch the refusal off
    message = "min_im must be a finite number, got nan"
    for argv in (("eval", "--form", "eta", "--z", "0.5+0.01i"), ("check", "--form", "eta", "--elem", "T")):
        code, out, err = run_cli(capsys, *argv, "--min-im", "nan")
        assert code == 2 and out == "" and message in err, argv
    # a negative one would act as zero
    for argv in (("eval", "--form", "eta", "--z", "0.2+0.0001i"), ("check", "--form", "eta", "--elem", "T")):
        code, out, err = run_cli(capsys, *argv, "--min-im", "-1")
        assert code == 2 and out == "" and "min_im must be nonnegative, got -1.0" in err, argv
    # certify's threshold is CERTIFY_CONFIG's, which every report's setup implies
    code, out, err = run_cli(capsys, "certify", "--max-word-len", "0", "--json", str(out_path), "--min-im", "1e-6")
    assert code == 2 and out == "" and "unrecognized arguments: --min-im 1e-6" in err
    assert not out_path.exists()


def test_certify_check_error_becomes_that_checks_failure(capsys, tmp_path, monkeypatch):
    """A check that raises one of the package's own errors fails with it as its counterexample, and the others
    still run: an eta-hat that raises where it is evaluated fails exactly the checks that evaluate it.  The
    named forms are built at setup, so a builder that raises refuses the run before any check runs."""
    from metaplectic import qseries
    from metaplectic.certify import CHECKS
    from metaplectic.errors import ModularityError
    from metaplectic.reps import VVForm
    from metaplectic.slash import HoloFn

    message = "induced form fails certification (residual 1.5e+00 > 1.0e-09)"

    def broken(*args):
        raise ModularityError(message)

    monkeypatch.setitem(qseries.NAMED_FORMS, "eta-hat", broken)
    out_path = tmp_path / "report.json"
    argv = ("certify", "--max-word-len", "1", "--json", str(out_path))
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n") and not out_path.exists()
    hat = qseries.eta_hat_form(qseries.CERTIFY_CONFIG)
    raising = VVForm(HoloFn(2, broken, broken), hat.weight, hat.rep)
    monkeypatch.setitem(qseries.NAMED_FORMS, "eta-hat", lambda cfg: raising)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 1
    report = json.loads(out_path.read_text())
    assert report["pass"] is False
    assert sorted(c["check_id"] for c in report["checks"]) == sorted(cid for cid, _ in CHECKS)
    failed = {c["check_id"]: c for c in report["checks"] if not c["pass"]}
    assert set(failed) == {"action_composition", "action_reflection_forms", "form_restriction_round_trip",
                           "form_induction_round_trip", "eta_hat_identities", "holomorphy_probes"}
    for check in failed.values():
        assert set(check) == {"check_id", "params", "universe", "max_residual", "pass", "counterexample"}
        assert check["counterexample"] == {"error": f"ModularityError: {message}"}
    assert "FAIL  eta_hat_identities" in out


def test_certify_report_is_strict_json(capsys, tmp_path, monkeypatch):
    """A non-finite residual is written as a string, so a strict parser accepts the report."""
    from metaplectic import certify, cli

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    monkeypatch.setattr(certify, "composition_residuals",
                        lambda forms, pairs, points: np.full((len(forms), len(pairs)), np.nan))
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "certify", "--max-word-len", "2", "--json", str(out_path))
    assert code == 1
    assert "FAIL  action_composition               residual=nan" in out
    report = json.loads(out_path.read_text(), parse_constant=refuse)
    (check,) = [c for c in report["checks"] if c["check_id"] == "action_composition"]
    assert check["max_residual"] == "nan" and check["pass"] is False
    assert [c["check_id"] for c in report["checks"] if not c["pass"]] == ["action_composition"]
    monkeypatch.setattr(cli, "modularity_residual", lambda *args: float("inf"))
    code, out, _ = run_cli(capsys, "check", "--form", "eta", "--elem", "T", "--json")
    assert code == 1 and json.loads(out, parse_constant=refuse)["residual"] == "inf"


def test_readme_examples_print_what_the_readme_shows(capsys):
    """Every ``$ metaplectic eval`` and ``$ metaplectic check`` example in README's Examples block prints exactly
    the lines shown under it, with exit 0; the certify example is left out, its output is elided."""
    block = README.read_text().split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    examples = [chunk.splitlines() for chunk in block.strip().split("\n\n")]
    runs = [(shlex.split(command.removeprefix("$ metaplectic ")), shown) for command, *shown in examples
            if command.startswith(("$ metaplectic eval ", "$ metaplectic check "))]
    assert len(runs) == 4
    for argv, shown in runs:
        assert run_cli(capsys, *argv)[:2] == (0, "".join(line + "\n" for line in shown)), argv
