"""`gibbskit check --seed 0` prints exactly the committed golden text.

Python 3.12 made the builtin ``sum`` of floats compensated, which moves
the last digit of two reported error figures, so 3.12 and later have
their own golden file.
"""

import sys
from pathlib import Path

from gibbskit import cli

FIXTURES = Path(__file__).resolve().parent / "fixtures"
GOLDEN = FIXTURES / (
    "check_seed0_py312.txt" if sys.version_info >= (3, 12) else "check_seed0.txt"
)


def test_check_seed0_stdout_is_byte_identical(capsys):
    code = cli.main(["check", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == GOLDEN.read_bytes()
