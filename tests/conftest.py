import hashlib

import numpy as np
import pytest


@pytest.fixture(scope="session")
def digest():
    """The first 16 hex digits of the sha256 of the arrays' bytes, in order."""

    def bytes_digest(*arrays) -> str:
        return hashlib.sha256(b"".join(np.asarray(a).tobytes() for a in arrays)).hexdigest()[:16]

    return bytes_digest


@pytest.fixture(scope="session")
def acceptance_lines(request):
    """Shared sink for acceptance verdict lines, echoed after the run."""
    lines = []
    request.config._acceptance_lines = lines
    return lines


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
