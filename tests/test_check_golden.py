"""`gibbskit check --seed 0` prints exactly the committed golden text.

Seeds 1 to 3, and seed 0 with ``--output json``, are pinned by the sha256
of their output.  One fixture and one digest per seed hold on every
supported Python, 3.10 to 3.13: the library adds floats left to right, not
with the builtin ``sum``, whose float result changed in 3.12.
"""

import hashlib
from pathlib import Path

import pytest

from gibbskit import cli

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "check_seed0.txt"


def test_check_seed0_stdout_is_byte_identical(capsys):
    code = cli.main(["check", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode("utf-8") == GOLDEN.read_bytes()


# sha256 of `gibbskit check --seed N` stdout.
CHECK_DIGESTS = {
    1: "99b11d8b1243eb4ba5f564645331e46f82a5c494160d1bce1f59e8b25cc84101",
    2: "04770e49cfcfdfa5d4b1a08492ae1b5d79812ea9bc9921c42356dbe21a407f64",
    3: "0073bb18541b46ea9474129cb0e462aa98fc487d37d131a08a2cb81f25fe3bc7",
}


@pytest.mark.parametrize("seed", sorted(CHECK_DIGESTS))
def test_check_stdout_digest_is_pinned(capsys, seed):
    code = cli.main(["check", "--seed", str(seed)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == CHECK_DIGESTS[seed]


# sha256 of `gibbskit check --seed 0 --output json` stdout.
CHECK_JSON_DIGEST = "eb4142ac20cb3f41b2ad7f4f313169b5c9fcdd7612d8662260abc3cbfcec0eda"


def test_check_json_digest_is_pinned(capsys):
    code = cli.main(["check", "--seed", "0", "--output", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == CHECK_JSON_DIGEST
