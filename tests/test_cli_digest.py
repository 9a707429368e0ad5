"""The stdout and exit code of a fixed corpus of CLI invocations, pinned.

Each invocation runs ``cli.main`` in-process.  The transcript holds the
argv (with file names, not paths), stdout and the exit code; stderr is
left out, so a change of wording in an error message does not move the
digest, but a change of exit code does.
"""

import contextlib
import hashlib
import io
from pathlib import Path

from gibbskit import cli

FIELDS = Path(__file__).resolve().parents[1] / "sample_fields"

POINTS = (("0", "0", "0"), ("1", "-2", "0.5"), ("1", "1", "1"))
BINDS = ("--bind", "dr=0,1,0", "--bind", "c=1,2,3")
EXPRESSIONS = (
    "v",
    "∇·v",
    "∇×v",
    "∇∧v",
    "∇⊗v",
    "(∇⊗v)†",
    "dr · (∇⊗v)",
    "(∇⊗v) · dr",
    "d",
    "Ω",
    "∇(c · v)",
    "∇(v · v)",
    "dr ⊗ c",
    "dr ∧ c",
    "2 * v - c",
    # expression errors, exit 3
    "dr · ∇⊗v",
    "w",
    "((",
    "1e999 * v",
)
SCRIPT = "∇ · v\ndr · (∇⊗v)\n\n∇(v · v)\nΩ · c\n"

DIGEST = "616c7ee3c103da44880be3ccc17a2d9f3d34840a0ab4afc9d5225abe1ad76312"


def _corpus():
    for name in ("shear", "rotation", "dilation"):
        field = ("--field", f"@{name}.json")
        for point in POINTS:
            where = (*field, "--point", *point)
            for output in ("text", "json"):
                out = ("--output", output)
                yield ("kinematics", *where, *out)
                yield ("conventions", *where, *out)
                for expr in EXPRESSIONS:
                    yield ("eval", *where, *BINDS, *out, expr)
                yield ("eval", *where, *BINDS, *out, "--script", "@script.txt")
                yield ("eval", *where, *out, "--fd-step", "1e-3", "∇(v · v)")
        yield ("conventions", *field)
        yield ("eval", *field, "v")
    shear = ("--field", "@shear.json")
    # invocation errors, exit 1
    yield ("kinematics", *shear)
    yield ("eval", *shear)
    yield ("eval", *shear, "--script", "@script.txt", "v")
    yield ("eval", *shear, "--fd-step", "0", "v")
    yield ("eval", *shear, "--bind", "dr=1,2", "v")
    yield ("eval", *shear, "--output", "xml", "v")
    yield ("kinematics", "--field", "@missing.json", "--point", "0", "0", "0")
    yield ("frobnicate",)


def _transcript(tmp_path):
    (tmp_path / "script.txt").write_text(SCRIPT, encoding="utf-8")
    files = {f"@{p.name}": str(p) for p in FIELDS.glob("*.json")}
    files["@script.txt"] = str(tmp_path / "script.txt")
    files["@missing.json"] = str(tmp_path / "missing.json")
    parts = []
    for argv in _corpus():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([files.get(arg, arg) for arg in argv])
        parts.append(f"$ {' '.join(argv)}\n{out.getvalue()}exit {code}\n")
    return "".join(parts)


def test_cli_corpus_digest_is_pinned(tmp_path):
    text = _transcript(tmp_path)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGEST
