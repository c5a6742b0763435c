"""Golden certificates.  Each file under tests/golden holds an input
document, the subcommand and flags it runs under, the exit code, and the
certificate (without toolVersion) the CLI printed when the file was
written.  The CLI must reproduce both byte for byte."""
import json
from pathlib import Path

import pytest

from logflat import serialize as ser
from logflat.cli import _HANDLERS, main

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def test_golden_corpus_present():
    commands = {json.loads(path.read_text())["argv"][0] for path in GOLDEN}
    assert set(_HANDLERS) <= commands


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_certificate(path, capsys):
    case = json.loads(path.read_text())
    cmd, *flags = case["argv"]
    code = main([cmd, json.dumps(case["input"]), *flags])
    out = capsys.readouterr().out
    expected = dict(case["certificate"], toolVersion=ser.TOOL_VERSION)
    assert (code, out) == (case["exit"], ser.canonical_dumps(expected) + "\n")
