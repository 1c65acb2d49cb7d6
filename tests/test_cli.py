"""Command-line interface: output, exit codes, report files."""

from __future__ import annotations

import json

import pytest

from permgram import perms
from permgram.cli import main
from permgram.grammar import builtin_hash
from permgram.sequences import flatten, read_sequence_file, read_triangle_csv


def test_derive_prints_polynomial(capsys):
    assert main(["derive", "--grammar", "G", "--seed", "z", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "z*w^2 + x*z*v"


def test_derive_all_orders(capsys):
    assert main(["derive", "--grammar", "G", "--seed", "x*v - z*u", "--n", "1", "--all"]) == 0
    out = capsys.readouterr().out
    assert "D^0" in out and "D^1: 0" in out


def test_derive_file_grammar(tmp_path, capsys):
    path = tmp_path / "tiny.grammar"
    path.write_text("vars: x y\nrule x -> x*y\nrule y -> x*y\n")
    assert main(["derive", "--grammar", str(path), "--seed", "x", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "x*y^2 + x^2*y"


def test_derive_usage_errors(capsys):
    assert main(["derive", "--grammar", "G", "--seed", "q", "--n", "1"]) == 2
    assert main(["derive", "--grammar", "nope", "--seed", "z", "--n", "1"]) == 2
    assert main(["derive", "--grammar", "G", "--seed", "z", "--n", "-1"]) == 2


def test_enumerate_families(capsys):
    assert main(["enumerate", "--family", "P", "--n", "0"]) == 0
    assert capsys.readouterr().out.strip() == "z"
    assert main(["enumerate", "--family", "T", "--n", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 + x"


def test_enumerate_cap(capsys):
    assert main(["enumerate", "--family", "P", "--n", "10"]) == 2
    assert "cap" in capsys.readouterr().err


def test_enumerate_csv_export(tmp_path, capsys):
    out = tmp_path / "tri.csv"
    assert main(["enumerate", "--family", "Eulerian", "--n", "4", "--csv", str(out)]) == 0
    assert out.read_text().splitlines() == ["1", "1", "1,1", "1,4,1", "1,11,11,1"]
    assert main(["enumerate", "--family", "P", "--n", "3", "--csv", str(out)]) == 2


def test_enumerate_csv_and_seq_roundtrip(tmp_path, capsys):
    csv, seq = tmp_path / "a.csv", tmp_path / "a.seq"
    assert main(["enumerate", "--family", "U", "--n", "5", "--csv", str(csv), "--seq", str(seq)]) == 0
    rows = perms.triangle("U", 5)
    assert read_triangle_csv(csv) == rows
    assert read_sequence_file(seq) == ("U", flatten(rows))


def test_verify_single_check(capsys):
    assert main(["verify", "thm-P", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS") and "1 checks run, 1 passed" in out


def test_verify_unknown_id(capsys):
    assert main(["verify", "definitely-not-a-check"]) == 2
    assert "unknown check" in capsys.readouterr().err


def test_verify_list(capsys):
    assert main(["verify", "all", "--list"]) == 0
    out = capsys.readouterr().out
    assert "thm-P" in out and "exact-sampled" in out


def test_verify_json_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "g1-eulerian", "--n-max", "4", "--json", str(report_path)]) == 0
    document = json.loads(report_path.read_text())
    assert document["passed"] is True
    assert document["checks"][0]["id"] == "g1-eulerian"
    grammars = {"g1": builtin_hash("g1")}
    assert document["checks"][0]["provenance"]["grammar_sha256"] == grammars
    assert document["provenance"] == {"grammar_sha256": grammars, "cap": 9}


def test_verify_runner_error_is_a_failed_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "gessel", "--order", "6", "--cap", "5", "--json", str(report_path)]) == 1
    document = json.loads(report_path.read_text())
    assert document["passed"] is False
    assert document["checks"][0]["counterexample"].startswith("EnumerationCapError: n=6")


def test_verify_json_deterministic(tmp_path, capsys):
    def snapshot(name):
        path = tmp_path / name
        assert main(["verify", "thm-P", "--n-max", "3", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        for check in data["checks"]:
            check.pop("elapsed_s")
        return data

    assert snapshot("a.json") == snapshot("b.json")


def test_oeis_compare(tmp_path, capsys):
    tri = tmp_path / "gessel.csv"
    assert main(["enumerate", "--family", "Gessel-T", "--n", "6", "--csv", str(tri)]) == 0
    capsys.readouterr()
    assert main(["oeis", "--local", str(tri), "--ref", "A008971"]) == 0
    assert "matches" in capsys.readouterr().out

    ltri = tmp_path / "l.csv"
    assert main(["enumerate", "--family", "L", "--n", "7", "--csv", str(ltri)]) == 0
    capsys.readouterr()
    assert main(["oeis", "--local", str(ltri), "--ref", "A000085", "--column", "0"]) == 0


def test_oeis_mismatch_and_errors(tmp_path, capsys):
    tri = tmp_path / "tri.csv"
    tri.write_text("1\n2\n")
    ref = tmp_path / "ref.seq"
    ref.write_text("ref: 1 3\n")
    assert main(["oeis", "--local", str(tri), "--ref", str(ref)]) == 1
    capsys.readouterr()
    corrupted = tmp_path / "bad.seq"
    corrupted.write_text("ref: 1 oops\n")
    assert main(["oeis", "--local", str(tri), "--ref", str(corrupted)]) == 2
    assert "line 1" in capsys.readouterr().err
    assert main(["oeis", "--local", str(tri), "--ref", "A424242"]) == 2


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--family", "NOPE", "--n", "2"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
