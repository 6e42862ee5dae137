"""Shared fixtures."""

import pytest


@pytest.fixture
def poison_call(monkeypatch):
    """``poison_call(owner, name, call, poison)``: the ``call``-th call (counted
    from 1) of ``owner.name`` returns ``poison(result)``; every other call is
    unchanged.  The patch is undone after the test."""

    def install(owner, name, call, poison):
        original = getattr(owner, name)
        count = 0

        def wrapper(*args, **kwargs):
            nonlocal count
            count += 1
            result = original(*args, **kwargs)
            return poison(result) if count == call else result

        monkeypatch.setattr(owner, name, wrapper)

    return install
