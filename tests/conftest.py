import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """After every test, this process has no child left: every child it forked has been reaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
