"""The compiled GA kernels carry a file name and a code name of their own.

The file name is ``<gibbskit.ga kernel>`` for every kernel; the code name says
which kernel it is: ``geometric kernel`` for a product, and the frame term for
a frame sum, as in ``geometric(geometric(e, a), d) kernel``.  Profilers key a
function by file, first line and code name, so each kernel gets its own row,
and a traceback names the kernel it passed through.
"""

import traceback

import pytest

from gibbskit import Vec3, ga, kinematics

KERNEL_FILE = "<gibbskit.ga kernel>"


def test_a_product_kernel_and_a_frame_kernel_name_their_file():
    product = ga._kernel("geometric")
    frame = ga._frame_kernel(("dot", "e", ("wedge", "a", "d")))
    assert product.__code__.co_filename == KERNEL_FILE
    assert frame.__code__.co_filename == KERNEL_FILE


def test_a_traceback_through_a_kernel_names_it():
    with pytest.raises(AttributeError) as info:
        kinematics.bidi_forward_of("not a tensor", Vec3(1.0, 2.0, 3.0))
    frames = traceback.extract_tb(info.tb)
    assert frames[-1].filename == KERNEL_FILE and frames[-1].name == "geometric(geometric(e, a), d) kernel"
