"""Single queries and small sweeps, replayed in process against recorded output.

``golden_queries.json`` maps each command line to the stdout and exit code
it had when recorded: the E8 adjoint and small exceptional characters,
fusions, ``norm --route both``, ``oracle-sl2`` and ``cb-region``, all in
json, and each of the seven subcommands in csv and table.  Those include a
failing ``verify-weight`` (exit 2, with Z1 and Z2 rows), a ``cb-region``
with divergence rows and a single-route ``norm``, so the cells of weights,
weight lists, bools, rationals and reals are all pinned.  One fusion has an
anchor beyond the 21-bit packed fields, and the two A1 fusions with
lambda = 2^20 - 5 and 2^20 - 4 against mu = 1 straddle the switch from
21-bit to 22-bit fields (``test_width_rule`` in ``test_fusion.py``).
The ``oracle-sl2`` runs pin the exact block certificate across block shapes:
8x8 at q = 0.3, 0.5 and 0.9 (json; 0.9 also in csv and table), 8x3 at 0.9,
where the block sizes plateau, 7x5 at 1/7, where mn is odd (re-recorded when
the rows became the certified q^E rounded once: its nu = 10 row reads
7^11 = 1977326743 exactly, where it read 1977326743.00), 0x8 at 0.5,
with a trivial leg, and 2x6 and 6x2 at 0.9, besides 6x2 at 0.3 in json and 2x5
at 0.5 in all three formats.
Sweeps over types with a diagram automorphism, which decompose one pair per
orbit of it, are pinned in json and csv: ``casimir-check`` on A3, D4,
A1xA1 (and E6, json only: one run takes about a minute), ``verify-weight``
lst and beta on A3 and D5, and the failing beta 0.5 on A2 and A1xA1, whose
Z1 and Z2 rows include the mirror images of violations.  The larger sweeps
are replayed from ``bench/expected.json`` by ``test_expected_output.py``.
"""

import json
import pathlib

import pytest

from qbf.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).resolve().parent / "golden_queries.json").read_text())


def test_every_subcommand_is_covered():
    subcommands = {"character", "fusion", "verify-weight", "norm", "cb-region", "oracle-sl2",
                   "casimir-check"}
    assert {command.split()[0] for command in GOLDEN} == subcommands
    assert {(command.split()[0], command.split()[-1]) for command in GOLDEN} >= {
        (name, fmt) for name in subcommands for fmt in ("csv", "table")}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_the_recorded_output(command, capsys):
    code = main(command.split())
    assert (code, capsys.readouterr().out) == (GOLDEN[command]["code"], GOLDEN[command]["stdout"])
