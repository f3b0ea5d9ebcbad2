import pytest

from slamlog.homsolver import HomSearcher


@pytest.fixture
def propagations(monkeypatch):
    """A list that grows by one entry per `HomSearcher._propagate_from`
    call, the search's unit of work below the root."""
    calls = []
    propagate = HomSearcher._propagate_from

    def counting(*args):
        calls.append(None)
        return propagate(*args)
    monkeypatch.setattr(HomSearcher, "_propagate_from",
                        staticmethod(counting))
    return calls
