"""The README's CLI transcripts, replayed through ``main`` byte for byte.

Every fenced ``text`` block that starts with a ``movies.onto`` command line
and elides nothing (no ``...`` line) is a transcript: each command in it, a
``$`` line with its ``\\`` continuations, is followed by its exact stdout.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from fuzzyosf.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
ONTOLOGY = README.split("(`movies.onto`):\n\n```text\n", 1)[1].split("```", 1)[0]
PROMPT = "$ fuzzyosf --ontology movies.onto "


def _transcripts() -> list[tuple[list[str], str]]:
    """Each replayable command's argv (without the program name) and stdout."""
    found = []
    for block in re.findall(r"```text\n(.*?)```", README, flags=re.S):
        if not block.startswith(PROMPT) or "..." in block.splitlines():
            continue
        for chunk in block.replace("\\\n", " ").strip("\n").split("\n\n"):
            command, _, stdout = chunk.partition("\n")
            found.append((shlex.split(command)[2:], stdout + "\n"))
    return found


TRANSCRIPTS = _transcripts()
COMMANDS = [next(arg for arg in argv[2:] if not arg.startswith("--")) for argv, _ in TRANSCRIPTS]


def test_the_replayed_transcripts_are_the_expected_ones():
    # A README edit that hides a transcript from the pattern must show here.
    assert COMMANDS == ["check", "degree", "glb", "unify", "subsumes", "normalize"]


@pytest.mark.parametrize("argv, stdout", TRANSCRIPTS, ids=COMMANDS)
def test_readme_transcript(capsys, tmp_path, argv, stdout):
    ontology = tmp_path / "movies.onto"
    ontology.write_text(ONTOLOGY, encoding="utf-8")
    code = main([str(ontology) if arg == "movies.onto" else arg for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, stdout, "")
