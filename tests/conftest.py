import os

import pytest

from skewbrace import analysis, perms

HEAVY = os.environ.get("SKEWBRACE_HEAVY") == "1"

requires_heavy = pytest.mark.skipif(
    not HEAVY, reason="set SKEWBRACE_HEAVY=1 to run the expensive checks")


def refuse_searches(monkeypatch, *names):
    """Make the named regular-subgroup searches of skewbrace.perms fail the
    test if run, also where skewbrace.analysis imported them."""
    def refuse(N):
        pytest.fail(f"a search of Hol({N.name}) was run")
    for name in names:
        monkeypatch.setattr(perms, name, refuse)
        monkeypatch.setattr(analysis, name, refuse)
