"""Checks that every test in this directory runs under."""

import pytest

from dagam import tensor


@pytest.fixture(autouse=True)
def no_tape_left_recording():
    """Fail a test that leaves a tape on this thread's recording stack."""
    yield
    left = tensor._STATE.stack
    tensor._STATE.stack = []  # so the next test starts clean either way
    assert not left, f"the test left {len(left)} tape(s) on the recording stack"
