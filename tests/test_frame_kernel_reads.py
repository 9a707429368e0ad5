"""Each frame kernel computes only what its frame sum reads.

A frame sum keeps the grade-1 part of its terms, so the products inside
it compute only the slots that a later product or the sum reads: every
local that a frame kernel assigns is read by a later statement.
"""

import ast

import pytest

from gibbskit import Tensor3, Vec3, ga, kinematics

FRAMES = [kinematics.strain_split_of, kinematics.bidi_forward_of, kinematics.bidi_reverse_of]


def unread_locals(source: str) -> set[str]:
    """Names whose last assignment no later statement reads (straight-line code)."""
    names = sorted(
        (n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    last_store = {n.id: (n.lineno, n.col_offset) for n in names if isinstance(n.ctx, ast.Store)}
    read_after = {
        n.id for n in names
        if isinstance(n.ctx, ast.Load) and n.id in last_store
        and n.lineno > last_store[n.id][0]
    }
    return set(last_store) - read_after


@pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f.__name__)
def test_every_local_of_a_frame_kernel_is_read(frame, monkeypatch):
    sources = []
    compile_kernel = ga._compile

    def spy(params, lines, result):
        body = "".join(f"    {line}\n" for line in [*lines, f"return {result}"])
        sources.append(f"def kernel({params}):\n{body}")
        return compile_kernel(params, lines, result)

    ga._frame_kernel.cache_clear()
    monkeypatch.setattr(ga, "_compile", spy)
    frame(Tensor3(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0))), Vec3(1.0, -2.0, 3.0))
    assert len(sources) == 1
    assert unread_locals(sources[0]) == set()
