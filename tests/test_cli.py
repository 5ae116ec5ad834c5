import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lefschetz.cli import main
from lefschetz.feasibility import REJECT_CHI_H, ConstraintProfile, enumerate_feasible

ROOT = Path(__file__).resolve().parents[1]
CLI_REFS = ROOT / "bench" / "refs" / "cli.json"
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- enumerate ----------------------------------------------------------------


def test_enumerate_g3(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--genus", "3", "--max-fibers", "18", "--hyperelliptic"
    )
    assert code == 1  # nothing admitted
    assert "16" in out and "chi-h" in out
    assert "admitted: 0, pre-chi survivors: 1" in out


def test_enumerate_g4_json(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--genus", "4", "--max-fibers", "24",
        "--hyperelliptic", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["admitted"] == [[16, 0, 5], [16, 4, 2], [18, 2, 3]]
    assert [18, 0, 0] in doc["pre_chi_survivors"]
    assert any("18,0,0" in n.replace(" ", "") for n in doc["notes"])


def test_enumerate_warns_before_many_rows(capsys, monkeypatch):
    argv = ("enumerate", "--genus", "4", "--max-fibers", "24", "--hyperelliptic")
    code, out, err = run(capsys, *argv)
    assert err == ""
    # 2,599 rows = C(26, 3) - 1
    monkeypatch.setattr("lefschetz.cli.ENUMERATE_WARN_ROWS", 2598)
    assert run(capsys, *argv) == (
        code, out,
        "warning: evaluating 2,599 count vectors (more than 2,598); "
        "this may take minutes\n",
    )
    monkeypatch.setattr("lefschetz.cli.ENUMERATE_WARN_ROWS", 2599)
    assert run(capsys, *argv) == (code, out, "")


def test_enumerate_g4_note_matches_rows(capsys):
    # The note is fixed text; recompute what it states from the rows.
    _, out, _ = run(
        capsys, "enumerate", "--genus", "4", "--max-fibers", "24",
        "--hyperelliptic", "--json",
    )
    [note] = json.loads(out)["notes"]
    vector = tuple(map(int, re.search(r"\((\d+(?:,\d+)*)\)", note).group(1).split(",")))
    chi_h = int(re.search(r"chi_h = (-?\d+)", note).group(1))
    rows = enumerate_feasible(ConstraintProfile(4, 24))
    [row] = [r for r in rows if (r.counts.n, *r.counts.s) == vector]
    assert row.verdict == REJECT_CHI_H and row.chi_h == chi_h


def test_enumerate_requires_hyperelliptic(capsys):
    code, out, err = run(capsys, "enumerate", "--genus", "3", "--max-fibers", "18")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
    assert re.fullmatch(r"error: profile is not hyperelliptic: .*, got False\n", err)


def test_enumerate_show_rejected(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--genus", "2", "--max-fibers", "14",
        "--hyperelliptic", "--show-rejected",
    )
    assert code == 1
    assert "rejected (congruence)" in out
    assert "rejected (n-lower-bound)" in out


def test_enumerate_json_byte_stable(capsys):
    _, out1, _ = run(
        capsys, "enumerate", "--genus", "2", "--max-fibers", "14",
        "--hyperelliptic", "--json",
    )
    _, out2, _ = run(
        capsys, "enumerate", "--genus", "2", "--max-fibers", "14",
        "--hyperelliptic", "--json",
    )
    assert out1 == out2


# sha256 of stdout, recorded before enumerate_feasible returned lazy rows;
# the text rows and (6, 30) were recorded before enumerate built only the
# output it prints.
ENUMERATE_DIGESTS = {
    (2, 14, ""):
        "0cbdf09ce1baf341bc0c6db6da94e26c126f2bca83438ec36936a9b4b940b0b3",
    (2, 14, "--show-rejected"):
        "558ebe6ee5f628b26246fb03f136a0c2aadecede25705a1d57d44d12a3c22b6c",
    (2, 14, "--show-rejected --json"):
        "1064898c7c986ada8976616aaa804d53d7e0350cb833a660765ef98a9930adb6",
    (2, 14, "--json"):
        "d1a57fb3f287edf316377db792681b4acc6bcd24e6273b69f437bf3577346199",
    (4, 24, "--show-rejected"):
        "ba942bc91d3fccba638ad08b61957cfccfe6234155debed4a807afcb847c6efb",
    (4, 24, "--show-rejected --json"):
        "f4cbd5f1a75c5d466b2347f4c31d6a7308516d1f081e6008ab94c811ede2e48c",
    (4, 24, "--json"):
        "2501f5d6b032c7f78015eb18986710d5a762a84bb59f0b742eb216af8f556da3",
    (4, 24, ""):
        "88768bb099354e8f2f061e7fec16efcba70c03fba1beeb83c7a19eca277b6b65",
    (6, 30, ""):
        "359d468c3e957335bd1ef75f00751642133b2a0a67e85ad3a7263010aa8844ed",
    (6, 30, "--json"):
        "8adebe5fc802d0078fd4e5682b932ba2838fea5fafea1bfd70be9f7d5f2d0959",
    (6, 30, "--show-rejected"):
        "b33c610da0c499c49baf288df63d7b70f2060b38ba90061b7bfebaf863c1f203",
}


@pytest.mark.parametrize("g,bound,flags", sorted(ENUMERATE_DIGESTS))
def test_enumerate_output_digests(capsys, g, bound, flags):
    _, out, _ = run(
        capsys, "enumerate", "--genus", str(g), "--max-fibers", str(bound),
        "--hyperelliptic", *flags.split(),
    )
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[g, bound, flags]


# -- invariants -----------------------------------------------------------------


def test_invariants_ledger_route(capsys):
    code, out, _ = run(
        capsys, "invariants", "--genus", "4", "--n", "18", "--s1", "5",
        "--ledger", "mats*1,block:-6*1,sep*-3",
    )
    assert code == 0
    assert "e            11" in out
    assert "sigma        -7" in out
    assert "(1, 8)" in out
    assert "CP^2 # 8 CP^2bar" in out


def test_invariants_hyperelliptic_route_json(capsys):
    code, out, _ = run(
        capsys, "invariants", "--genus", "4", "--n", "18", "--s1", "6",
        "--s2", "0", "--hyperelliptic", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["e"] == 12 and doc["sigma"] == -8
    assert doc["betti"] == {"b2plus": 1, "b2minus": 9}
    assert doc["candidate"] == "CP^2 # 9 CP^2bar"


def test_invariants_needs_a_route(capsys):
    code, _, err = run(capsys, "invariants", "--genus", "4", "--n", "18")
    assert code == 2
    assert "route" in err


def test_invariants_nonintegral_sigma(capsys):
    code, out, _ = run(
        capsys, "invariants", "--genus", "2", "--n", "7", "--hyperelliptic"
    )
    assert code == 1
    assert "not an integer" in out


def test_invariants_nonintegral_sigma_json_bytes(capsys):
    code, out, err = run(
        capsys, "invariants", "--genus", "2", "--n", "7", "--hyperelliptic", "--json"
    )
    assert (code, err) == (1, "")
    assert out == (
        '{\n  "command": "invariants",\n  "genus": 2,\n  "n": 7,\n'
        '  "s": [\n    0\n  ],\n  "e": 3,\n  "sigma": "-21/5",\n'
        '  "sigma_integral": false\n}\n'
    )


def test_invariants_agreeing_routes(capsys):
    code, out, _ = run(
        capsys, "invariants", "--genus", "3", "--n", "12", "--s1", "6",
        "--hyperelliptic", "--ledger", "block:-6*1",
    )
    assert code == 0
    assert "sigma        -6" in out
    assert "hyperelliptic, ledger" in out


def test_invariants_disagreeing_routes(capsys):
    code, _, err = run(
        capsys, "invariants", "--genus", "4", "--n", "18", "--s1", "6",
        "--hyperelliptic", "--ledger", "sep*1",
    )
    assert code == 1
    assert "disagree" in err


def test_invariants_infeasible_betti(capsys):
    code, out, _ = run(
        capsys, "invariants", "--genus", "2", "--n", "4", "--s1", "3",
        "--hyperelliptic",
    )
    assert code == 1
    assert "infeasible" in out


@pytest.mark.parametrize("spec", [
    "mats:3", "block", "block:x", "block:", "foo*1", "sep*x", "sep*", "a*b*c",
    "", "mats*1,,sep*1", "mats*1.5", "block:1.5", "block:1_0", "mats* 1", "sep*+1",
    "block:\u0661",
])
def test_invariants_malformed_ledger_exit_2(capsys, spec):
    # the second counts have a non-integral hyperelliptic signature
    for counts in (("--genus", "4", "--n", "18", "--s1", "5"),
                   ("--genus", "2", "--n", "7", "--hyperelliptic")):
        code, out, err = run(capsys, "invariants", *counts, "--ledger", spec)
        assert (code, out) == (2, "")
        assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("invariants", "--genus", "1_0", "--n", "40", "--hyperelliptic"),
    ("invariants", "--genus", "4", "--n", "+18", "--hyperelliptic"),
    ("invariants", "--genus", "4", "--n", "18", "--s1", "\u0665", "--hyperelliptic"),
    ("enumerate", "--genus", "2", "--max-fibers", " 14", "--hyperelliptic"),
    ("pi1", "W1", "--max-cosets", "1_000"),
    ("bounds", "--genus", "+4"),
])
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "invalid integer value" in err


def test_invariants_ledger_multiplicity_defaults_to_one(capsys):
    argv = ("invariants", "--genus", "3", "--n", "12", "--s1", "6", "--json")
    bare = run(capsys, *argv, "--ledger", "block:-6")
    assert bare[0] == 0
    assert bare == run(capsys, *argv, "--ledger", "block:-6*1")


def test_invariants_s_flag_above_genus_exit_2(capsys):
    code, out, err = run(
        capsys, "invariants", "--genus", "4", "--n", "18", "--s3", "1", "--hyperelliptic"
    )
    assert (code, out) == (2, "")
    assert err == "error: --s3 is out of range for genus 4 (types run 1..2)\n"


def test_invariants_s_flag_at_genus_one_exit_2(capsys):
    code, out, err = run(
        capsys, "invariants", "--genus", "1", "--n", "2", "--s1", "0", "--hyperelliptic"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: --s1 is out of range for genus 1, which has no separating types\n"
    )


# -- pi1 ---------------------------------------------------------------------------


def test_pi1_catalog_entries(capsys):
    for name in ("W1", "W2"):
        code, out, _ = run(capsys, "pi1", name)
        assert code == 0
        assert "order 1" in out
        assert "abelian invariants: []" in out


def test_pi1_json(capsys):
    code, out, _ = run(capsys, "pi1", "W2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 1
    assert doc["outcome"] == "order"
    assert doc["abelian_invariants"] == []


def test_pi1_entry_without_words(capsys):
    code, _, err = run(capsys, "pi1", "W")
    assert code == 2
    assert "words" in err


def test_pi1_missing_source(capsys):
    code, _, err = run(capsys, "pi1", "no-such-thing")
    assert code == 2


def test_pi1_mono_file(tmp_path, capsys):
    path = tmp_path / "torus.mono"
    path.write_text(
        "genus 1\nboundary 0\n"
        "curve u kind nonsep hom 1 0 word a1\n"
        "curve v kind nonsep hom 0 1 word b1\n"
        + "twist u\ntwist v\n" * 6
        + "target identity\n"
    )
    code, out, _ = run(capsys, "pi1", str(path))
    assert code == 0
    assert "order 1" in out


def test_pi1_exceeded(tmp_path, capsys):
    path = tmp_path / "big.mono"
    # quotient of the genus-2 surface group by one commuting word: infinite
    path.write_text(
        "genus 2\nboundary 0\n"
        "curve u kind nonsep hom 1 0 0 0 word a1\n"
        "twist u\n"
        "target identity\n"
    )
    code, out, _ = run(capsys, "pi1", str(path), "--max-cosets", "200")
    assert code == 1
    assert "exceeded" in out


# -- catalog ------------------------------------------------------------------------


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    for name in ("T", "V2", "V4", "W", "W1", "W2"):
        assert name in out


def test_catalog_show(capsys):
    code, out, _ = run(capsys, "catalog", "show", "W1")
    assert code == 0
    assert "23 letters" in out
    assert "sigma = -7" in out


def test_catalog_show_unknown(capsys):
    code, _, err = run(capsys, "catalog", "show", "XX")
    assert code == 2


@pytest.mark.parametrize("action", ["show", "export"])
def test_catalog_unknown_entry_message(capsys, action):
    assert run(capsys, "catalog", action, "Nope") == (
        2, "", "error: no catalog entry named 'Nope'\n"
    )


def test_catalog_export_verify_loop(tmp_path, capsys):
    # export then verify must never error for any shipped entry
    for name in ("T", "V2", "V4", "W", "W1", "W2"):
        code, out, _ = run(capsys, "catalog", "export", name)
        assert code == 0
        path = tmp_path / f"{name}.mono"
        path.write_text(out)
        code, out, err = run(capsys, "verify", str(path))
        assert code in (0, 1)  # indeterminate without full homology data
        assert "Traceback" not in err


def test_catalog_export_byte_stable(capsys):
    _, out1, _ = run(capsys, "catalog", "export", "W2")
    _, out2, _ = run(capsys, "catalog", "export", "W2")
    assert out1 == out2


# -- verify -------------------------------------------------------------------------


def test_verify_torus_relator(tmp_path, capsys):
    path = tmp_path / "t.mono"
    path.write_text(
        "genus 1\nboundary 0\n"
        "curve u kind nonsep hom 1 0\ncurve v kind nonsep hom 0 1\n"
        + "twist u\ntwist v\n" * 6
        + "target identity\n"
    )
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "matrix identity  True" in out


def test_verify_negative(tmp_path, capsys):
    path = tmp_path / "t5.mono"
    path.write_text(
        "genus 1\nboundary 0\n"
        "curve u kind nonsep hom 1 0\ncurve v kind nonsep hom 0 1\n"
        + "twist u\ntwist v\n" * 5
        + "target identity\n"
    )
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "matrix identity  False" in out


def test_verify_hyperelliptic_text_has_congruence_line(tmp_path, capsys):
    path = tmp_path / "t.mono"
    path.write_text(
        "genus 1\nboundary 0\n"
        "curve u kind nonsep hom 1 0\ncurve v kind nonsep hom 0 1\n"
        + "twist u\ntwist v\n" * 6
        + "target identity\n"
    )
    code, out, _ = run(capsys, "verify", str(path), "--hyperelliptic")
    assert code == 0
    assert "\ncongruence       True\n" in out


@pytest.mark.parametrize("twists", ["", "twist p\n"])
def test_verify_fiberless_word(tmp_path, capsys, twists):
    path = tmp_path / "b.mono"
    path.write_text(
        "genus 1\nboundary 1\ncurve p kind boundary 1\n" + twists + "target identity\n"
    )
    code, out, err = run(capsys, "verify", str(path), "--hyperelliptic")
    assert (code, err) == (0, "")
    assert "counts           none (no fiber letters)\n" in out
    assert "matrix identity  True\n" in out and "congruence" not in out
    code, out, err = run(capsys, "verify", str(path), "--hyperelliptic", "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["matrix_ok"] is True
    assert doc["counts"] is None and doc["congruence_ok"] is None
    assert len(doc["letters"]) == len(twists.splitlines())


def test_verify_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.mono"
    path.write_text("genus 1\nboundary 0\ntwist zz\ntarget identity\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2
    assert "line 3" in err


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/no/such/file.mono")
    assert code == 2


@pytest.mark.parametrize("subcommand", ["verify", "pi1"])
def test_unreadable_path_exit_2(tmp_path, capsys, subcommand):
    code, _, err = run(capsys, subcommand, str(tmp_path))
    assert code == 2
    assert "cannot read" in err
    assert "Traceback" not in err


def test_verify_non_utf8_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "latin.mono"
    path.write_bytes(b"genus 1\nboundary 0\n# cafe\xff\ntarget identity\n")
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 25: invalid start byte\n"
    )


# -- bounds -------------------------------------------------------------------------


def test_bounds_g4(capsys):
    code, out, _ = run(capsys, "bounds", "--genus", "4")
    assert code == 0
    assert "16 <= N_4 <= 23" in out
    assert "21 <= M_4 <= 24" in out


def test_bounds_g2_json(capsys):
    code, out, _ = run(capsys, "bounds", "--genus", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == {"lower": 14, "upper": 14}
    assert doc["m"] == {"lower": 14, "upper": 14}


def test_bounds_g7_open_question(capsys):
    code, out, _ = run(capsys, "bounds", "--genus", "7")
    assert code == 0
    assert "N_7 >= 28" in out
    assert "M_7 >= 29" in out
    assert "open question" in out


# -- usage --------------------------------------------------------------------------


def test_bad_subcommand_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_no_subcommand_exit_2(capsys):
    assert main([]) == 2


def test_module_entry_point(capsys):
    # python -m lefschetz runs __main__.py, the only module entry point
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "lefschetz", "catalog", "list", "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == run(capsys, "catalog", "list", "--json")[:2]


# -- golden replay ------------------------------------------------------------------


def test_golden_cli_replay(tmp_path, monkeypatch, capsys):
    # Every argv of the benchmark's cli workload, with stdout and exit code
    # captured from the seed commit; .mono files go where the argv name them.
    refs = json.loads(CLI_REFS.read_text())
    monkeypatch.chdir(tmp_path)
    tmp = Path(".bench-tmp")
    tmp.mkdir()
    for key, ref in refs.items():
        argv = key.split()
        if argv[:2] == ["catalog", "export"] and "--json" not in argv:
            (tmp / f"{argv[2]}.mono").write_text(ref["stdout"])
    assert len(refs) == 80
    for key, ref in refs.items():
        code, out, _ = run(capsys, *key.split())
        assert (code, out) == (ref["exit"], ref["stdout"]), key
