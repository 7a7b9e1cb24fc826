import pytest

from kspp import simulator


@pytest.fixture(scope="session", autouse=True)
def _no_thread_env():
    """Run the suite without an inherited KSPP_THREADS: a serial run stays
    serial whatever the shell exports. Tests that want threads set it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("KSPP_THREADS", raising=False)
        yield


@pytest.fixture(autouse=True)
def _empty_drift_memo():
    """Start every test with an empty drift memo (`simulator._drift_memo`),
    so that no test reads the sums an earlier test's `run` left there.
    Fixtures set up after this one, such as a function-scoped ensemble,
    may fill it again."""
    simulator._drift_memo = None
