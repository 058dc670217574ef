"""One digest of the CLI output over the test corpus and the fixtures.

Runs, in this process, ``crosskont eval``, ``eval --trace`` and
``eval --check`` on the 64 corpus instances of ``tests/corpus.py`` and
the two instance fixtures, ``multcr`` on the two profile fixtures and
``mult`` on the four map fixtures: 204 calls.  Prints the number of
calls and one SHA-256 over (command, flags, file name, exit code,
stdout, stderr) of every call.  A refactor that must leave the CLI
output byte-identical leaves both lines unchanged::

    python3 tools/cli_digest.py

Every file is copied into one temporary directory and passed by its
bare name, so the digest does not depend on where the repository lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from corpus import CORPUS  # noqa: E402
from crosskont.cli import main  # noqa: E402

# The command and flags run on each file, by the file's schema.
CALLS = {
    "instance/1": [["eval"], ["eval", "--trace"], ["eval", "--check"]],
    "profile/1": [["multcr"]],
    "stablemap/1": [["mult"]],
}


def instance_document(inst) -> dict:
    return {
        "schema": "instance/1",
        "degree": inst.degree,
        "points": list(inst.points),
        "lines": [{"label": x, "weight": inst.condition(x).weight} for x in inst.lines],
        "free": list(inst.free),
        "crossratios": [sorted(cr) for cr in inst.crossratios],
    }


def write_inputs(directory: Path) -> list[tuple[str, str]]:
    """Write every input file; return (file name, schema) in run order."""
    inputs = []
    for i, inst in enumerate(CORPUS):
        name = f"corpus_{i:02d}.json"
        (directory / name).write_text(json.dumps(instance_document(inst)))
        inputs.append((name, "instance/1"))
    for path in sorted((ROOT / "tests" / "fixtures").glob("*.json")):
        shutil.copy(path, directory / path.name)
        inputs.append((path.name, json.loads(path.read_text())["schema"]))
    return inputs


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest() -> tuple[int, str]:
    """(number of CLI calls, SHA-256 over their records)."""
    sha = hashlib.sha256()
    calls = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for name, schema in inputs:
                for command, *flags in CALLS[schema]:
                    code, out, err = run([command, *flags, name])
                    sha.update(json.dumps([command, flags, name, code, out, err]).encode())
                    calls += 1
        finally:
            os.chdir(home)
    return calls, sha.hexdigest()


if __name__ == "__main__":
    count, hexdigest = digest()
    print(f"runs: {count}")
    print(f"sha256: {hexdigest}")
