import pytest

from ambc_fbl import cli


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(k)`` makes ``cli.run_calls`` see k usable CPUs."""

    def pin(cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)

    return pin
