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
