"""The `slow` marker: tests marked with it run only when the
environment variable QUASISPIN_SLOW is set (to anything nonempty)."""

import os

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: runs only with QUASISPIN_SLOW=1 (minutes, not "
                   "seconds)")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("QUASISPIN_SLOW"):
        return
    skip = pytest.mark.skip(reason="set QUASISPIN_SLOW=1 to run slow tests")
    for item in items:
        if item.get_closest_marker("slow"):
            item.add_marker(skip)
