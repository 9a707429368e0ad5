"""A profile shows each generated function on a row of its own.

``pstats`` keys a function by (file name, first line, code name).  Every
function that ``ga`` compiles starts on line 1 of a file name it shares with
its siblings (``<gibbskit.ga kernel>``, ``<gibbskit.notation constructor>``),
so only the code name tells them apart: ``geometric kernel``, the frame
term for a frame kernel, ``Binary.__init__`` for a constructor.  Profiled
together, the siblings must keep their own rows and their full call counts.
"""

import cProfile
import pstats

from gibbskit import Multivector, Tensor3, Vec3, ga, kinematics, notation

ROUNDS = 100


def rows(profile: cProfile.Profile, filename: str) -> dict[str, int]:
    """Code name -> call count of each profiled function compiled as ``filename``."""
    stats = pstats.Stats(profile).stats
    return {name: calls[1] for (file, _, name), calls in stats.items() if file == filename}


def test_the_six_kernels_have_a_row_each():
    m = Multivector((1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0))
    g = Tensor3(((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), (7.0, 8.0, 9.0)))
    dx = Vec3(1.0, -2.0, 3.0)

    def products():
        m * m
        ga.dot(m, m)
        ga.wedge(m, m)
        kinematics.strain_split_of(g, dx)
        kinematics.bidi_forward_of(g, dx)
        kinematics.bidi_reverse_of(g, dx)

    products()  # compiles the kernels not compiled yet, out of the profile
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(ROUNDS):
        products()
    profile.disable()
    assert rows(profile, "<gibbskit.ga kernel>") == {
        "geometric kernel": ROUNDS,
        "dot kernel": ROUNDS,
        "wedge kernel": ROUNDS,
        "dot(e, wedge(a, d)) kernel": ROUNDS,
        "geometric(geometric(e, a), d) kernel": ROUNDS,
        "geometric(geometric(a, d), e) kernel": ROUNDS,
    }


def test_each_node_constructor_has_a_row():
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(ROUNDS):
        notation.parse("dr · (∇⊗v) + 2 * (a · b)")
    profile.disable()
    assert rows(profile, "<gibbskit.notation constructor>") == {
        "Binary.__init__": 5 * ROUNDS,
        "Nabla.__init__": ROUNDS,
        "ScalarLit.__init__": ROUNDS,
        "VectorRef.__init__": 4 * ROUNDS,
    }
