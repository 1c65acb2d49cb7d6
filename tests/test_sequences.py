"""Triangle export and sequence cross-checks."""

from __future__ import annotations

import pytest

from permgram import perms
from permgram.sequences import (SequenceFormatError, cached_sequence, compare_file,
                                compare_values, flatten,
                                parse_sequence_text, read_sequence_file,
                                read_triangle_csv, write_sequence_file,
                                write_triangle_csv)


def test_triangle_csv_roundtrip(tmp_path):
    rows = perms.triangle("Eulerian", 4)
    path = tmp_path / "eulerian.csv"
    write_triangle_csv(rows, path)
    assert read_triangle_csv(path) == rows
    assert path.read_text().splitlines()[3] == "1,4,1"


def test_sequence_file_roundtrip(tmp_path):
    path = tmp_path / "demo.seq"
    write_sequence_file("demo", [1, 1, 2, 4], path)
    assert read_sequence_file(path) == ("demo", [1, 1, 2, 4])


def test_sequence_file_errors():
    with pytest.raises(SequenceFormatError, match="line 2"):
        parse_sequence_text("# comment\nA000085 1 2 3")
    with pytest.raises(SequenceFormatError, match="line 1"):
        parse_sequence_text("A000085: 1 two 3")
    with pytest.raises(SequenceFormatError):
        parse_sequence_text("# nothing here")


def test_triangle_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,x\n")
    with pytest.raises(SequenceFormatError, match="line 2"):
        read_triangle_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(SequenceFormatError):
        read_triangle_csv(empty)


def test_cached_references_match_enumeration():
    # involutions: column 0 of the L-triangle vs the recurrence-built cache
    _, reference = cached_sequence("A000085")
    local = [row[0] for row in perms.triangle("L", 8)]
    comparison = compare_values(local, reference)
    assert comparison.passed and comparison.overlap == 9
    # exterior-peak triangle, flattened row-major
    _, reference = cached_sequence("A008971")
    local = flatten(perms.triangle("Gessel-T", 8))
    comparison = compare_values(local, reference)
    assert comparison.passed and comparison.overlap == len(local)


def test_cached_sequence_missing():
    with pytest.raises(FileNotFoundError):
        cached_sequence("A999999")


def test_compare_file_detects_mismatch(tmp_path):
    local = tmp_path / "tri.csv"
    write_triangle_csv(perms.triangle("Gessel-T", 5), local)
    good = compare_file(local, "A008971")
    assert good.passed
    ref = tmp_path / "broken.seq"
    write_sequence_file("broken", [1, 1, 1, 1, 1, 99], ref)
    bad = compare_file(local, str(ref))
    assert not bad.passed
    assert bad.mismatches[0][0] == 5
    assert "index 5" in bad.describe()


def test_compare_file_column(tmp_path):
    local = tmp_path / "l.csv"
    write_triangle_csv(perms.triangle("L", 7), local)
    assert compare_file(local, "A000085", column=0).passed
    assert not compare_file(local, "A000085", column=1).passed
    with pytest.raises(SequenceFormatError, match="column must be nonnegative"):
        compare_file(local, "A000085", column=-1)  # not the last entry of each row
