import pytest


@pytest.fixture(scope="session", autouse=True)
def _no_thread_env():
    """Run the suite without an inherited KSPP_THREADS: a serial run stays
    serial whatever the shell exports. Tests that want threads set it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("KSPP_THREADS", raising=False)
        yield
