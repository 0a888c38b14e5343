"""Tests for alerting."""

from __future__ import annotations

import pytest

from repro.core.alerting import Alert, AlertAction, AlertManager, AlertPolicy
from repro.streamml.instance import (
    ClassifiedBlock,
    ClassifiedInstance,
    Instance,
)


def _classified(predicted, confidence, timestamp=0.0, tweet_id="t1"):
    n_classes = max(predicted + 1, 2)
    proba = [0.0] * n_classes
    proba[predicted] = confidence
    remaining = 1.0 - confidence
    for cls in range(n_classes):
        if cls != predicted:
            proba[cls] = remaining / (n_classes - 1)
    return ClassifiedInstance(
        instance=Instance(x=(0.0,), timestamp=timestamp, tweet_id=tweet_id),
        predicted=predicted,
        proba=tuple(proba),
    )


class TestAlertPolicy:
    def test_action_by_confidence(self):
        policy = AlertPolicy(escalation_confidence=0.9)
        assert policy.action_for(0.5) is AlertAction.NOTIFY_MODERATOR
        assert policy.action_for(0.95) is AlertAction.REMOVE_TWEET


def _columns(items):
    """``(classified, user_id)`` pairs as a columnar block + user ids."""
    block = ClassifiedBlock(
        [c.instance.x for c, _ in items],
        [c.proba for c, _ in items],
        [c.predicted for c, _ in items],
        [c.instance.timestamp for c, _ in items],
        [c.instance.tweet_id for c, _ in items],
    )
    return block, [user_id for _, user_id in items]


class TestProcessBatch:
    def test_batch_matches_per_instance_processing(self):
        items = [
            (_classified(1, 0.9, timestamp=float(i), tweet_id=f"t{i}"), "u1")
            for i in range(4)
        ] + [(_classified(0, 0.99), "u2"), (_classified(1, 0.3), "u3")]
        batched = AlertManager()
        raised = batched.process_batch(*_columns(items))
        one_by_one = AlertManager()
        for classified, user_id in items:
            one_by_one.process(classified, user_id=user_id)
        assert len(raised) == batched.n_alerts == one_by_one.n_alerts
        assert [a.action for a in batched.alerts] == [
            a.action for a in one_by_one.alerts
        ]
        assert batched.suspended_users == one_by_one.suspended_users
        assert batched.alerts == one_by_one.alerts

    def test_returns_only_raised_alerts(self):
        manager = AlertManager()
        raised = manager.process_batch(
            *_columns(
                [(_classified(0, 0.9), None), (_classified(1, 0.9), None)]
            )
        )
        assert len(raised) == 1
        assert raised[0].predicted_class == 1

    def test_empty_batch(self):
        manager = AlertManager()
        assert manager.process_batch(*_columns([])) == []
        assert manager.n_alerts == 0


class TestAlertManager:
    def test_normal_prediction_no_alert(self):
        manager = AlertManager()
        assert manager.process(_classified(0, 0.99)) is None
        assert manager.n_alerts == 0

    def test_aggressive_prediction_alerts(self):
        manager = AlertManager()
        alert = manager.process(_classified(1, 0.8))
        assert alert is not None
        assert alert.predicted_class == 1
        assert alert.action is AlertAction.NOTIFY_MODERATOR

    def test_low_confidence_suppressed(self):
        manager = AlertManager(AlertPolicy(min_confidence=0.7))
        assert manager.process(_classified(1, 0.6)) is None

    def test_high_confidence_escalates_to_removal(self):
        manager = AlertManager(AlertPolicy(escalation_confidence=0.9))
        alert = manager.process(_classified(1, 0.97))
        assert alert.action is AlertAction.REMOVE_TWEET

    def test_multiclass_aggressive_classes(self):
        manager = AlertManager(AlertPolicy(aggressive_classes=(1, 2)))
        assert manager.process(_classified(2, 0.9)) is not None

    def test_repeat_offender_suspended(self):
        manager = AlertManager(AlertPolicy(suspend_after=3))
        for i in range(3):
            alert = manager.process(
                _classified(1, 0.8, timestamp=float(i)), user_id="u7"
            )
        assert alert.action is AlertAction.SUSPEND_USER
        assert "u7" in manager.suspended_users

    def test_history_window_expires(self):
        manager = AlertManager(
            AlertPolicy(suspend_after=2, history_window=10.0)
        )
        manager.process(_classified(1, 0.8, timestamp=0.0), user_id="u1")
        # Second offense far outside the window: no suspension.
        alert = manager.process(
            _classified(1, 0.8, timestamp=1000.0), user_id="u1"
        )
        assert alert.action is not AlertAction.SUSPEND_USER
        assert "u1" not in manager.suspended_users

    def test_sink_invoked(self):
        received = []
        manager = AlertManager()
        manager.add_sink(received.append)
        manager.process(_classified(1, 0.8))
        assert len(received) == 1
        assert isinstance(received[0], Alert)

    def test_alerts_by_action(self):
        manager = AlertManager(AlertPolicy(escalation_confidence=0.9))
        manager.process(_classified(1, 0.8))
        manager.process(_classified(1, 0.95))
        histogram = manager.alerts_by_action()
        assert histogram[AlertAction.NOTIFY_MODERATOR] == 1
        assert histogram[AlertAction.REMOVE_TWEET] == 1
