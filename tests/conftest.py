import sys

import pytest
from hypothesis import settings

from lrc4 import _gf4vec

# Derandomized and without a deadline, so a property test draws the same
# examples on every run and a slow machine cannot fail it on time alone.
settings.register_profile("lrc4", deadline=None, derandomize=True, max_examples=100, database=None)
settings.load_profile("lrc4")


@pytest.fixture
def echelon_calls(monkeypatch):
    """The packed rows of every ``_gf4vec.echelon`` call made from here
    on, recorded before they are reduced, under each lrc4 module's name
    for it."""
    calls = []
    real = _gf4vec.echelon

    def recorded(rows):
        calls.append(list(rows))
        return real(rows)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "lrc4" and vars(mod).get("echelon") is real:
            monkeypatch.setattr(mod, "echelon", recorded)
    return calls
