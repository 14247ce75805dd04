"""The CLI's data files, byte for byte, against the golden set in ``tests/golden/``.

Each case is a directory holding the ``config.json`` it runs. The three
benchmark workloads are cases at seeds 1-10 (``correlations-1`` ...), with
the configs the benchmark draws for them, and each runs every subcommand
its workload runs. Two more cases run ``witness`` with every tag: a
stepwise OUN walk and a one-shot PLN walk. A third, one-shot MID and MI of
the default walker under RTN(0.05, 0.008), reaches a step whose position
marginal is degenerate (t = 2), where MID takes its canonical position
frame. A fourth, stepwise MID, MI and QD under OUN(20, 5) from
delta = 0.7, eta = 0.5 rad, meets coin marginals whose eigenvalue gap is
a few 1e-9, just above DEGENERACY_TOL, at t = 2-4, where MID keeps the
solver's basis and reads 0.82, 0.40 and 0.055 bits while MI and QD stay
near 0. Seed 1 and these four cases keep their data files; seeds 2-10 keep
only their SHA-256 digests, in ``SHA256SUMS`` (the ``sha256sum`` format).
``metadata.json`` holds a timestamp and is left out.

The test runs each case through ``nmqwalk.cli.main`` in ``tmp_path`` and
compares the bytes of every data file it writes; a mismatch names the file
and its first differing line. A change that moves a data file on purpose
regenerates the whole set, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each kept data file it rewrites with other bytes, its
name, how many rows changed and the first difference, and for each
digest-only case the names whose digest changed; the change lists those
rows in CHANGES.md.
"""

import hashlib
import itertools
import shutil
import tempfile
from pathlib import Path

import pytest

from nmqwalk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

#: subcommands of each benchmark workload, in the order the benchmark runs them
_WORKLOAD_STEPS = {
    "correlations": ("witness",),
    "backflow": ("choi", "witness", "spectrum"),
    "stepwise": ("walk", "witness"),
}
#: case -> subcommands it runs
CASES = {
    f"{workload}-{seed}": steps
    for workload, steps in _WORKLOAD_STEPS.items()
    for seed in range(1, 11)
}
CASES["stepwise-oun-all-tags"] = ("witness",)
CASES["one-shot-pln-all-tags"] = ("witness",)
CASES["one-shot-degenerate-mid"] = ("witness",)
CASES["stepwise-near-degenerate-mid"] = ("witness",)
#: cases that keep only the digests of their data files, in their DIGESTS file
DIGEST_ONLY = {f"{workload}-{seed}" for workload in _WORKLOAD_STEPS for seed in range(2, 11)}
DIGESTS = "SHA256SUMS"


def run_case(case: str, out: Path) -> dict[str, bytes]:
    """Relative path -> bytes of every data file the case's subcommands write to ``out``."""
    config = str(GOLDEN / case / "config.json")
    for step in CASES[case]:
        if step == "spectrum":
            argv = ["spectrum", "--config", config, "--input", str(out / "td.csv"),
                    "--out", str(out / "spectrum")]
        else:
            argv = [step, "--config", config, "--out", str(out)]
        assert main(argv) == 0, f"{case}: nmqwalk {step} failed"
    return {
        path.relative_to(out).as_posix(): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "metadata.json"
    }


def golden_files(case: str) -> dict[str, bytes]:
    """Relative path -> bytes of every data file a kept case holds."""
    case_dir = GOLDEN / case
    return {
        path.relative_to(case_dir).as_posix(): path.read_bytes()
        for path in sorted(case_dir.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


def golden_digests(case: str) -> dict[str, str]:
    """Relative path -> SHA-256 hex digest of every data file a digest-only case lists."""
    lines = (GOLDEN / case / DIGESTS).read_text(encoding="utf-8").splitlines()
    return {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


def digest_lines(files: dict[str, bytes]) -> str:
    return "".join(f"{digest}  {name}\n" for name, digest in digests(files).items())


def line_pairs(got: bytes, want: bytes):
    return itertools.zip_longest(got.decode().splitlines(), want.decode().splitlines())


def first_difference(name: str, got: bytes, want: bytes) -> str:
    """Where two versions of one data file first differ, by line."""
    for line, (g, w) in enumerate(line_pairs(got, want), start=1):
        if g != w:
            return f"{name}: line {line} is {g!r}, the golden file has {w!r}"
    return f"{name}: same lines, different bytes (line endings?)"


def changed_rows(got: bytes, want: bytes) -> int:
    """How many lines differ between two versions of one data file, line by line."""
    return sum(g != w for g, w in line_pairs(got, want))


@pytest.mark.parametrize("case", CASES)
def test_data_files_match_the_golden_set(case, tmp_path):
    files = run_case(case, tmp_path)
    if case in DIGEST_ONLY:
        want, got = golden_digests(case), digests(files)
        moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
        assert not moved, f"{case}: SHA-256 differs for {moved}"
    else:
        want, got = golden_files(case), files
        moved = [
            first_difference(f"{case}/{name}", got[name], want[name])
            for name in sorted(want.keys() & got.keys())
            if got[name] != want[name]
        ]
        assert not moved, "\n".join(moved)
    assert got.keys() == want.keys(), (
        f"{case}: written {sorted(got.keys() - want.keys())} are not in the golden set, "
        f"golden {sorted(want.keys() - got.keys())} were not written"
    )


def test_first_difference_names_the_line():
    got = b"step,value\n0,1\n1,0.5\n2,0.25\n"
    want = b"step,value\n0,1\n1,0.500000000001\n2,0.25\n"
    assert first_difference("td.csv", got, want) == (
        "td.csv: line 3 is '1,0.5', the golden file has '1,0.500000000001'"
    )
    assert "line 4 is None" in first_difference("td.csv", got[:-7], got)


def test_changed_rows_counts_lines():
    want = b"step,value\n0,1\n1,0.5\n2,0.25\n"
    assert changed_rows(want, want) == 0
    assert changed_rows(want.replace(b"0.5", b"0.6").replace(b"0.25", b"0.3"), want) == 2
    assert changed_rows(want + b"3,0.125\n", want) == 1


def changes(case: str, files: dict[str, bytes]) -> list[str]:
    """One line per data file of ``case`` whose bytes ``files`` change.

    A kept case gives the file's name, its number of changed rows and its
    first difference; a digest-only case gives the names whose digest changed.
    """
    if case in DIGEST_ONLY:
        old, new = golden_digests(case), digests(files)
        moved = sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))
        return [f"{case}: SHA-256 changed for {moved}"] if moved else []
    old = golden_files(case)
    return [
        f"{changed_rows(files.get(name, b''), old.get(name, b''))} changed rows in "
        + first_difference(f"{case}/{name}", files.get(name, b""), old.get(name, b""))
        for name in sorted(old.keys() | files.keys())
        if files.get(name) != old.get(name)
    ]


def regenerate() -> None:
    """Rewrite every case's data files, or its digests, from its config, printing what changed."""
    for case in CASES:
        case_dir = GOLDEN / case
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(case, Path(tmp))
        for line in changes(case, files):
            print(line)
        if case in DIGEST_ONLY:
            (case_dir / DIGESTS).write_text(digest_lines(files), encoding="utf-8")
            continue
        for path in case_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)
            elif path.name != "config.json":
                path.unlink()
        for name, data in files.items():
            (case_dir / name).parent.mkdir(parents=True, exist_ok=True)
            (case_dir / name).write_bytes(data)


if __name__ == "__main__":
    regenerate()
