"""The non-sweep subcommands, replayed in process against recorded output.

``golden_queries.json`` maps each command line to the stdout and exit code
it had when recorded: the E8 adjoint and small exceptional characters,
fusions, ``norm --route both``, ``oracle-sl2`` and ``cb-region``, all in
json.  One fusion has an anchor beyond the 21-bit packed fields, and the two
A1 fusions with lambda = 2^20 - 5 and 2^20 - 4 against mu = 1 straddle the
switch from 21-bit to 22-bit fields (``test_width_rule`` in
``test_fusion.py``).  The sweeps are replayed from ``bench/expected.json``
by ``test_expected_output.py``.
"""

import json
import pathlib

import pytest

from qbf.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "golden_queries.json").read_text())


def test_every_subcommand_is_covered():
    assert {command.split()[0] for command in GOLDEN} == {
        "character", "fusion", "norm", "oracle-sl2", "cb-region"}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_recorded_output(command, capsys):
    code = main(command.split())
    assert (code, capsys.readouterr().out) == (GOLDEN[command]["code"], GOLDEN[command]["stdout"])
