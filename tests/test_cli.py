"""Command-line interface: output, exit codes, report files."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from permgram import perms, specialfn
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


def test_derive_renders_the_scaled_half_seed_chain_as_pinned(capsys):
    # tests/data/derive-G-scaled-half-seed-n8.txt is the output of
    # `permgram derive --grammar G --seed=-8/3*x^-1/2*z^-1/2 --n 8 --all`,
    # a chain whose coefficients mix ints and non-integral rationals; the
    # negative seed may also follow --seed as its own argument
    pinned = (Path(__file__).parent / "data" / "derive-G-scaled-half-seed-n8.txt").read_text()
    for seed in (["--seed=-8/3*x^-1/2*z^-1/2"], ["--seed", "-8/3*x^-1/2*z^-1/2"]):
        assert main(["derive", "--grammar", "G", *seed, "--n", "8", "--all"]) == 0
        assert capsys.readouterr().out == pinned


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
    # the oracle takes no cap, so enumerate has none
    assert main(["enumerate", "--family", "P", "--n", "10"]) == 0
    assert capsys.readouterr().out.strip().startswith("z")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--family", "P", "--n", "10", "--cap", "10"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


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


@pytest.mark.parametrize("flag", ["--n-max", "--order"])
def test_verify_rejects_negative_bounds(flag, capsys):
    assert main(["verify", "thm-P", flag, "-1"]) == 2
    assert f"{flag} must be nonnegative" in capsys.readouterr().err


def test_verify_has_no_cap(capsys):
    # the enumeration cap is the constant perms.WALK_CAP; nothing can raise it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "insertion", "--cap", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_bad_tolerance(tol, capsys):
    assert main(["verify", "pcf-closed", "--tol", tol]) == 2
    assert "--tol must be a finite positive number" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_rejects_fewer_than_one_job(jobs, capsys):
    assert main(["verify", "thm-P", "--jobs", jobs]) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err


def test_verify_unknown_id(capsys):
    assert main(["verify", "definitely-not-a-check"]) == 2
    assert "unknown check" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["derive", "--grammar", "{dir}", "--seed", "x", "--n", "1"],
    ["enumerate", "--family", "L", "--n", "3", "--csv", "{dir}/missing/x.csv"],
    ["enumerate", "--family", "L", "--n", "3", "--seq", "{dir}/missing/x.seq"],
    ["enumerate", "--family", "L", "--n", "3", "--csv", "{dir}"],
    ["verify", "pcf-closed", "--json", "{dir}/missing/r.json"],
    ["verify", "all", "--json", "{dir}"],
], ids=["derive-grammar-is-a-directory", "enumerate-csv", "enumerate-seq",
        "enumerate-csv-is-a-directory", "verify-json", "verify-json-is-a-directory"])
def test_a_bad_path_is_a_usage_error(argv, tmp_path, capsys):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert out == ""  # refused before any check ran or anything was printed


@pytest.mark.parametrize("argv", [
    ["verify", "no-such-check", "--json", "{dir}/r.json"],
    ["enumerate", "--family", "P", "--n", "3", "--csv", "{dir}/x.csv"],
    ["enumerate", "--family", "L", "--n", "-1", "--csv", "{dir}/x.csv", "--seq", "{dir}/x.seq"],
], ids=["unknown-check", "no-triangle", "negative-n"])
def test_a_refused_run_leaves_no_file(argv, tmp_path, capsys):
    assert main([arg.format(dir=tmp_path) for arg in argv]) == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_refused_run_keeps_an_existing_file(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("earlier report\n")
    assert main(["verify", "no-such-check", "--json", str(path)]) == 2
    assert path.read_text() == "earlier report\n"


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
    assert document["provenance"] == {"grammar_sha256": grammars}


def test_verify_runner_error_is_a_failed_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "insertion", "--n-max", "10", "--json", str(report_path)]) == 1
    document = json.loads(report_path.read_text())
    assert document["passed"] is False
    assert document["checks"][0]["counterexample"] == (
        "EnumerationCapError: n=10 exceeds the enumeration cap 9")


def test_verify_json_report_is_strict_json_with_a_nan_residual(tmp_path, capsys, monkeypatch):
    def reject(constant):
        raise ValueError(f"bare {constant} in the report")

    monkeypatch.setattr(specialfn, "gen_p_value", lambda point, t: float("nan"))
    report_path = tmp_path / "report.json"
    assert main(["verify", "genp-num", "--json", str(report_path)]) == 1
    document = json.loads(report_path.read_text(), parse_constant=reject)
    assert document["passed"] is False
    assert document["checks"][0]["max_residual"] == "nan"


def _without(node, keys):
    if isinstance(node, dict):
        return {k: _without(v, keys) for k, v in node.items() if k not in keys}
    if isinstance(node, list):
        return [_without(v, keys) for v in node]
    return node


def test_verify_all_report_is_pinned(tmp_path, capsys):
    # tests/data/verify-all.json is the report of `permgram verify all --json`
    # with every elapsed_s and max_residual removed (the last digit of a
    # residual may differ with the platform's libm); a verdict, count, note
    # or provenance hash that moves shows up here
    path = tmp_path / "verify-all.json"
    assert main(["verify", "all", "--json", str(path)]) == 0
    pinned = json.loads((Path(__file__).parent / "data" / "verify-all.json").read_text())
    assert _without(json.loads(path.read_text()), {"elapsed_s", "max_residual"}) == pinned


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


def test_oeis_round_trip_past_the_default_cap(tmp_path, capsys):
    tri = tmp_path / "gessel.csv"
    assert main(["enumerate", "--family", "Gessel-T", "--n", "10", "--csv", str(tri)]) == 0
    capsys.readouterr()
    assert main(["oeis", "--local", str(tri), "--ref", "A008971"]) == 0
    assert "on the first 36 terms" in capsys.readouterr().out

    ltri = tmp_path / "l.csv"
    assert main(["enumerate", "--family", "L", "--n", "12", "--csv", str(ltri)]) == 0
    capsys.readouterr()
    assert main(["oeis", "--local", str(ltri), "--ref", "A000085", "--column", "0"]) == 0
    assert "on the first 13 terms" in capsys.readouterr().out


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
    capsys.readouterr()
    assert main(["oeis", "--local", str(tri), "--ref", str(ref), "--column", "-1"]) == 2
    assert "column must be nonnegative" in capsys.readouterr().err


def test_bad_usage_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["enumerate", "--family", "NOPE", "--n", "2"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
