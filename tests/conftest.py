import pytest


@pytest.fixture
def pool_starts(monkeypatch):
    """The argument tuples of every process pool `kfx.search` starts."""
    import kfx.search

    starts = []
    real = kfx.search.Pool

    def counted(*args, **kwargs):
        starts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(kfx.search, "Pool", counted)
    return starts
