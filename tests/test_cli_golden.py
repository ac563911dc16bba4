"""Every command line's bytes against a recorded corpus.

Each ``tests/data/cli_golden/*.txt`` file holds a list of cases. A case
starts with ``### <name>`` and ``argv <arguments>``, then gives the exit
code and, as a ``<field> <n>`` line followed by exactly n bytes and a
newline, the stdout, the stderr, the ``--out`` file and its ``.meta``
sidecar. A file that was not written reads ``<field> -``. Every case
runs in a fresh working directory, so its paths are relative.

The corpus records what the command line does; an intended output
change shows up as a diff of these files, rendered by ``run_case``.
"""

import io
import os
import shlex
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qsnom.cli import main

CORPUS = Path(__file__).resolve().parent / "data" / "cli_golden"


def _field(name: str, data: bytes | None) -> bytes:
    if data is None:
        return f"{name} -\n".encode()
    return f"{name} {len(data)}\n".encode() + data + b"\n"


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def run_case(argv: list[str]) -> bytes:
    """Run ``qsnom <argv>`` in a fresh directory and render its record."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            out = meta = None
            if "--out" in argv:
                path = Path(argv[argv.index("--out") + 1])
                out, meta = _read(path), _read(path.with_suffix(".meta"))
        finally:
            os.chdir(cwd)
    return (
        f"argv {shlex.join(argv)}\nexit {code}\n".encode()
        + _field("stdout", stdout.getvalue().encode())
        + _field("stderr", stderr.getvalue().encode())
        + _field("out", out)
        + _field("meta", meta)
    )


def load_cases(path: Path) -> list[tuple[str, list[str], bytes]]:
    """Split a corpus file into (name, argv, recorded record) triples."""
    data = path.read_bytes()
    cases = []
    pos = 0

    def line() -> bytes:
        nonlocal pos
        end = data.index(b"\n", pos)
        text, pos = data[pos:end], end + 1
        return text

    while pos < len(data):
        name = line().decode().removeprefix("### ")
        start = pos
        argv = shlex.split(line().decode().removeprefix("argv "))
        line()  # exit code
        for _ in range(4):
            size = line().split(b" ")[1]
            if size != b"-":
                pos += int(size) + 1
        cases.append((name, argv, data[start:pos]))
    return cases


CASES = [
    pytest.param(argv, record, id=f"{path.stem}/{name}")
    for path in sorted(CORPUS.glob("*.txt"))
    for name, argv, record in load_cases(path)
]


def test_corpus_is_present():
    assert len(CASES) > 100


@pytest.mark.parametrize("argv, record", CASES)
def test_bytes_match(argv, record):
    assert run_case(argv).decode() == record.decode()
