"""The compiled GA kernels carry a file name, so profilers and tracebacks name them."""

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
    assert frames[-1].filename == KERNEL_FILE and frames[-1].name == "kernel"
