import pytest

from ambc_fbl import tail


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(k)`` makes ``tail.run_calls`` see k usable CPUs, with a
    fresh pool; pools made under the pin are shut down after the test."""

    def drop_pinned_pool():
        if tail._POOL is not None and tail._POOL is not original:
            tail._POOL.shutdown()

    def pin(cpus):
        drop_pinned_pool()
        monkeypatch.setattr(tail, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(tail, "_POOL", None)

    original = tail._POOL
    yield pin
    drop_pinned_pool()
