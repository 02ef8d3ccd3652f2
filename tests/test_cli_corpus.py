"""gb, verify, table, period and realize keep their bytes: every argv of the
committed corpus gives the exit code, stdout and stderr digests of its line
in cli_corpus.txt (see cli_corpus.py, which also writes that file)."""

from pathlib import Path

import pytest

import hkkit.cli
import hkkit.period
from cli_corpus import ARGVS, line

DIGESTS = Path(__file__).resolve().parent / "cli_corpus.txt"


def committed() -> list[tuple[str, str]]:
    """(argv, line) for each line of the digest file; the argv may be empty."""
    return [((text.split(" ", 3) + [""])[3], text) for text in DIGESTS.read_text().splitlines()]


def test_corpus_lists_the_generated_argvs():
    assert [argv for argv, _ in committed()] == ARGVS


def test_every_argv_gives_its_committed_bytes():
    lines = committed()
    differ = [want for argv, want in lines if line(argv) != want]
    assert not differ, f"{len(differ)} of {len(lines)} argvs differ:\n" + "\n".join(differ)


@pytest.mark.parametrize("size", [1, 3, 4096])
def test_block_edges_change_no_period_or_realize_bytes(monkeypatch, size):
    # phi is walked and rendered in blocks of period._BLOCK values
    monkeypatch.setattr(hkkit.period, "_BLOCK", size)
    monkeypatch.setattr(hkkit.cli, "_FULL_BLOCK", {})
    lines = [(argv, want) for argv, want in committed() if argv.startswith(("period", "realize"))]
    differ = [want for argv, want in lines if line(argv) != want]
    assert len(lines) == 551
    assert not differ, f"{len(differ)} of {len(lines)} argvs differ:\n" + "\n".join(differ)
