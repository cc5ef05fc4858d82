import os

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


@pytest.fixture
def pooled(monkeypatch):
    """Runs of any class count use the worker pool, and a host with one CPU
    counts as two, so a test of the pooled path takes it on small runs and
    on any host."""
    import kfx.search

    monkeypatch.setattr(kfx.search, "POOL_MIN_CLASSES", 0)
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(cpus, 2))
