"""The CLI's data files, byte for byte, against the golden set in ``tests/golden/``.

Each case is a directory holding the ``config.json`` it runs. The three
benchmark workloads are cases at seeds 1-10 (``correlations-1`` ...), with
the configs the benchmark draws for them, and each runs every subcommand
its workload runs. Two more cases run ``witness`` with every tag: a
stepwise OUN walk and a one-shot PLN walk. Seed 1 and the two all-tag cases
keep their data files; seeds 2-10 keep only their SHA-256 digests, in
``SHA256SUMS`` (the ``sha256sum`` format). ``metadata.json`` holds a
timestamp and is left out.

The test runs each case through ``nmqwalk.cli.main`` in ``tmp_path`` and
compares the bytes of every data file it writes; a mismatch names the file
and its first differing line. A change that moves a data file on purpose
regenerates the whole set, from the repository root, with

    PYTHONPATH=src python tests/test_golden.py

and lists every changed row in CHANGES.md.
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


def digest_lines(files: dict[str, bytes]) -> str:
    return "".join(f"{hashlib.sha256(data).hexdigest()}  {name}\n" for name, data in files.items())


def first_difference(name: str, got: bytes, want: bytes) -> str:
    """Where two versions of one data file first differ, by line."""
    pairs = itertools.zip_longest(got.decode().splitlines(), want.decode().splitlines())
    for line, (g, w) in enumerate(pairs, start=1):
        if g != w:
            return f"{name}: line {line} is {g!r}, the golden file has {w!r}"
    return f"{name}: same lines, different bytes (line endings?)"


@pytest.mark.parametrize("case", CASES)
def test_data_files_match_the_golden_set(case, tmp_path):
    files = run_case(case, tmp_path)
    if case in DIGEST_ONLY:
        lines = (GOLDEN / case / DIGESTS).read_text(encoding="utf-8").splitlines()
        want = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
        got = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
        moved = sorted(name for name in want.keys() & got.keys() if want[name] != got[name])
        assert not moved, f"{case}: SHA-256 differs for {moved}"
    else:
        case_dir = GOLDEN / case
        want = {
            path.relative_to(case_dir).as_posix(): path.read_bytes()
            for path in sorted(case_dir.rglob("*"))
            if path.is_file() and path.name != "config.json"
        }
        got = files
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


def regenerate() -> None:
    """Rewrite every case's data files, or its digests, from its config."""
    for case in CASES:
        case_dir = GOLDEN / case
        with tempfile.TemporaryDirectory() as tmp:
            files = run_case(case, Path(tmp))
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
