"""Exact golden pin for every paper artifact.

Each of Tables 1-8, Exp 5 and Figure 4 is rendered through the same
``repro`` command ``repro all`` runs, and its text must equal the golden
file ``goldens/<name>.txt`` byte for byte.  The shape tests elsewhere
check that the rows look like the paper; this one checks that a change
to the plumbing (message copies, scheduling, tracing) moved no number.

After a deliberate behaviour change, rewrite the goldens with
``PYTHONPATH=src python tests/experiments/test_paper_goldens.py`` and
review the diff.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import COMMANDS, build_parser

GOLDENS = Path(__file__).with_name("goldens")

ARTIFACTS = ("table1", "table2", "table3", "table4", "exp5", "figure4",
             "table5", "table6", "table7", "table8")


def render(name: str) -> str:
    """What ``repro <name>`` prints, with ``repro all``'s arguments."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        COMMANDS[name](build_parser().parse_args(["all"]))
    return buffer.getvalue()


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_matches_golden(name):
    golden = (GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    assert render(name) == golden


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for artifact in ARTIFACTS:
        (GOLDENS / f"{artifact}.txt").write_text(render(artifact),
                                                 encoding="utf-8")
        print(f"wrote {GOLDENS / artifact}.txt", file=sys.stderr)
