import subprocess
import sys

import pytest


@pytest.fixture(scope="session")
def cli():
    """Run the installed CLI in a subprocess; returns CompletedProcess."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "rmdp.cli", *[str(a) for a in args]],
            capture_output=True,
            text=True,
        )

    return run
