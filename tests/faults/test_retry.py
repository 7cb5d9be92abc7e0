"""Tests for the retry policy: a per-request budget plus fixed
attempt and backoff constants read at the moment of use."""

import dataclasses

import pytest

from repro.faults import RetryPolicy
from repro.faults import retry as retry_module


def test_budget_is_the_only_field():
    assert [f.name for f in dataclasses.fields(RetryPolicy)] == ["budget"]


def test_keyword_and_positional_budget_agree():
    assert RetryPolicy(budget=2.0) == RetryPolicy(2.0)
    assert RetryPolicy(budget=2.0).budget == 2.0


def test_gives_up_on_the_last_attempt():
    policy = RetryPolicy()
    last = retry_module.MAX_ATTEMPTS
    assert not policy.gives_up_after(last - 1)
    assert policy.gives_up_after(last)


def test_backoff_doubles_from_the_base():
    policy = RetryPolicy()
    assert [policy.backoff_after(n) for n in (1, 2, 3)] == pytest.approx(
        [0.05, 0.1, 0.2]
    )


def test_attempt_and_backoff_constants_are_read_at_use(monkeypatch):
    policy = RetryPolicy()
    monkeypatch.setattr(retry_module, "MAX_ATTEMPTS", 5)
    monkeypatch.setattr(retry_module, "BASE_BACKOFF", 1.0)
    monkeypatch.setattr(retry_module, "BACKOFF_FACTOR", 3.0)
    assert not policy.gives_up_after(4)
    assert policy.gives_up_after(5)
    assert policy.backoff_after(3) == 9.0
