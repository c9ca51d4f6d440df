"""Suite-wide configuration.

Honors ``REPRO_SANITIZE`` for the whole test session: the CI analyze tier
runs the smoke tests under ``REPRO_SANITIZE=nan,alias`` so the tape
sanitizer and optimizer-aliasing detector sweep real forward/backward
traffic, not just their own unit tests.  With the variable unset this is a
no-op and the suite runs exactly as before.

Every test starts and ends with ``REPRO_RUN_ID`` unset and no run journal
attached.  ``journal.start_run`` exports the id for forked workers, so
without this a test that opens a run would bind every later test's
``journal.get_journal()`` to it.
"""

import os

import pytest

from repro.analysis.sanitize import install_from_env
from repro.runtime import env, journal


def pytest_configure(config):
    install_from_env()


@pytest.fixture(autouse=True)
def _no_run_journal(monkeypatch):
    # delenv registers an undo only for a variable that was set; the
    # explicit pop below covers one a test sets itself.
    monkeypatch.delenv(env.RUN_ID.name, raising=False)
    journal.set_journal(None)
    yield
    journal.set_journal(None)
    os.environ.pop(env.RUN_ID.name, None)
