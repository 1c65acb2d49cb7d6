"""Integer-triangle export and sequence cross-checks against cached files.

Triangles are written as ragged CSV, one row per n.  Reference sequences
live in plain-text files ``<id>: v0 v1 v2 ...`` (``#`` comments allowed); a
small cache ships with the package and ``PERMGRAM_SEQ_CACHE`` points at an
alternative directory.  Remote fetching is opt-in and reads the b-file for
an id from the sequence archive.
"""

from __future__ import annotations

import os
import urllib.request
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Sequence

CACHE_ENV = "PERMGRAM_SEQ_CACHE"
REMOTE_TEMPLATE = "https://oeis.org/{id}/b{digits}.txt"


class SequenceFormatError(ValueError):
    """Malformed triangle CSV or sequence file; carries the line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def write_triangle_csv(rows: Sequence[Sequence[int]], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(str(v) for v in row) + "\n")


def read_triangle_csv(path: str | Path) -> list[list[int]]:
    rows: list[list[int]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([int(cell) for cell in line.split(",")])
            except ValueError:
                raise SequenceFormatError(f"non-integer entry in {line!r}", lineno) from None
    if not rows:
        raise SequenceFormatError("empty triangle file")
    return rows


def flatten(rows: Sequence[Sequence[int]]) -> list[int]:
    return [value for row in rows for value in row]


def write_sequence_file(seq_id: str, values: Sequence[int], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{seq_id}: " + " ".join(str(v) for v in values) + "\n")


def parse_sequence_text(text: str) -> tuple[str, list[int]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        seq_id, sep, payload = line.partition(":")
        if not sep:
            raise SequenceFormatError("expected '<id>: v0 v1 ...'", lineno)
        try:
            values = [int(tok) for tok in payload.split()]
        except ValueError:
            raise SequenceFormatError(f"non-integer term in sequence {seq_id.strip()!r}", lineno) from None
        if not values:
            raise SequenceFormatError("sequence has no terms", lineno)
        return seq_id.strip(), values
    raise SequenceFormatError("no sequence line found")


def read_sequence_file(path: str | Path) -> tuple[str, list[int]]:
    return parse_sequence_text(Path(path).read_text(encoding="utf-8"))


def cached_sequence(seq_id: str) -> tuple[str, list[int]]:
    """Look up an id in the override cache directory, then the packaged one."""
    override = os.environ.get(CACHE_ENV)
    if override:
        candidate = Path(override) / f"{seq_id}.seq"
        if candidate.exists():
            return read_sequence_file(candidate)
    packaged = resources.files("permgram").joinpath("data").joinpath("oeis").joinpath(f"{seq_id}.seq")
    if packaged.is_file():
        return parse_sequence_text(packaged.read_text(encoding="utf-8"))
    raise FileNotFoundError(f"no cached sequence {seq_id!r} (set {CACHE_ENV} to add caches)")


def fetch_remote(seq_id: str, timeout: float = 30.0) -> tuple[str, list[int]]:
    """Download and parse the archive b-file (lines of ``index value``)."""
    url = REMOTE_TEMPLATE.format(id=seq_id, digits=seq_id.lstrip("A"))
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8", errors="replace")
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SequenceFormatError(f"unexpected b-file line {line!r}", lineno)
        values.append(int(parts[1]))
    if not values:
        raise SequenceFormatError("b-file contained no terms")
    return seq_id, values


def load_reference(ref: str, fetch: bool = False) -> tuple[str, list[int]]:
    """Resolve a reference: an existing file path, a cached id, or (when
    fetching is enabled) a remote id."""
    if Path(ref).exists():
        return read_sequence_file(ref)
    try:
        return cached_sequence(ref)
    except FileNotFoundError:
        if fetch:
            return fetch_remote(ref)
        raise


@dataclass
class SequenceComparison:
    local_name: str
    reference_id: str
    overlap: int
    mismatches: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.overlap > 0 and not self.mismatches

    def describe(self) -> str:
        if self.passed:
            return (f"{self.local_name} matches {self.reference_id} on the first "
                    f"{self.overlap} terms")
        if not self.overlap:
            return f"{self.local_name} and {self.reference_id} share no terms"
        i, a, b = self.mismatches[0]
        return (f"{self.local_name} differs from {self.reference_id} at index {i}: "
                f"{a} != {b} ({len(self.mismatches)} mismatching terms)")


def compare_values(local: Sequence[int], reference: Sequence[int],
                   local_name: str = "local", reference_id: str = "reference") -> SequenceComparison:
    """Term-by-term diff over the overlapping prefix."""
    overlap = min(len(local), len(reference))
    mismatches = [(i, local[i], reference[i])
                  for i in range(overlap) if local[i] != reference[i]]
    return SequenceComparison(local_name, reference_id, overlap, mismatches)


def compare_file(local_csv: str | Path, ref: str, column: int | None = None,
                 fetch: bool = False) -> SequenceComparison:
    """Compare a triangle CSV (flattened row-major, or one column) against a
    reference sequence."""
    rows = read_triangle_csv(local_csv)
    if column is None:
        local = flatten(rows)
        name = f"{Path(local_csv).name} (flattened)"
    else:
        local = [row[column] for row in rows if column < len(row)]
        name = f"{Path(local_csv).name} (column {column})"
    ref_id, reference = load_reference(ref, fetch=fetch)
    return compare_values(local, reference, name, ref_id)
