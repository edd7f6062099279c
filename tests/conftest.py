import os

import pytest


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host has, so the process pool starts."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture
def one_cpu(monkeypatch):
    """One usable CPU, so every pool job runs in the calling process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


class ChildOnly:
    """Call it inside a pool job's fn: in a forked child it notes that a
    child has started an item and returns True; in the calling process it
    waits until one has and returns False. So a job that fails only where
    it returns True fails in another process than the caller, and a
    caller-side item cannot finish the job before a child starts."""

    def __init__(self):
        import multiprocessing

        self.caller = os.getpid()
        self.started = multiprocessing.get_context("fork").Event()

    def __call__(self) -> bool:
        if os.getpid() != self.caller:
            self.started.set()
            return True
        assert self.started.wait(60), "no pool child started an item"
        return False


@pytest.fixture
def in_child(two_cpus):
    """A fresh ChildOnly, with the pool on two CPUs."""
    return ChildOnly()
