"""The sweep commands of ``bench/expected.json``, replayed in process.

The benchmark compares the stdout of each of these commands byte for byte
with the committed expected output; this test does the same through
``qbf.cli.main``, so a change that moves one digit fails here first.  The
file is only read.
"""

import json
import pathlib

import pytest

from qbf.cli import main

EXPECTED = json.loads((pathlib.Path(__file__).resolve().parent.parent
                       / "bench" / "expected.json").read_text())


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_stdout_matches_the_expected_output(command, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert out == EXPECTED[command]["stdout"]
