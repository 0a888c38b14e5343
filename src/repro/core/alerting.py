"""Alerting (Fig. 1, step 6).

Raises alerts for tweets predicted aggressive. §III-A lists three
handling options — forwarding to human moderators, posting an automatic
warning, or removing the tweet — and suggests keeping a per-user alert
history to auto-suspend repeat offenders. All three are modeled here,
with pluggable sinks so deployments can route alerts anywhere.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.streamml.instance import ClassifiedBlock, ClassifiedInstance


class AlertAction(enum.Enum):
    """What to do with an alert."""

    NOTIFY_MODERATOR = "notify_moderator"
    POST_WARNING = "post_warning"
    REMOVE_TWEET = "remove_tweet"
    SUSPEND_USER = "suspend_user"


@dataclass(frozen=True)
class Alert:
    """A raised alert for a suspected aggressive tweet."""

    tweet_id: Optional[str]
    user_id: Optional[str]
    predicted_class: int
    confidence: float
    timestamp: float
    action: AlertAction


@dataclass
class AlertPolicy:
    """When and how to alert.

    Args:
        aggressive_classes: class indices that trigger alerts.
        min_confidence: minimum predicted-class probability to alert.
        escalation_confidence: confidence above which the tweet is
            removed rather than just flagged to moderators.
        suspend_after: alerts for the same user within ``history_window``
            before a suspension alert fires.
        history_window: per-user alert history length (seconds).
    """

    aggressive_classes: Tuple[int, ...] = (1,)
    min_confidence: float = 0.5
    escalation_confidence: float = 0.95
    suspend_after: int = 3
    history_window: float = 7 * 86400.0

    def action_for(self, confidence: float) -> AlertAction:
        """Base action by confidence level."""
        if confidence >= self.escalation_confidence:
            return AlertAction.REMOVE_TWEET
        return AlertAction.NOTIFY_MODERATOR


AlertSink = Callable[[Alert], None]


class AlertManager:
    """Applies an :class:`AlertPolicy` to classified instances.

    Keeps a per-user alert history so repeated offenses escalate to a
    :data:`AlertAction.SUSPEND_USER` alert, and dispatches every alert
    to the registered sinks.
    """

    def __init__(self, policy: Optional[AlertPolicy] = None) -> None:
        self.policy = policy if policy is not None else AlertPolicy()
        self.alerts: List[Alert] = []
        self.suspended_users: Dict[str, float] = {}
        self._user_history: Dict[str, Deque[float]] = {}
        self._sinks: List[AlertSink] = []

    def add_sink(self, sink: AlertSink) -> None:
        """Register a callback invoked for every raised alert."""
        self._sinks.append(sink)

    def process(
        self,
        classified: ClassifiedInstance,
        user_id: Optional[str] = None,
    ) -> Optional[Alert]:
        """Raise an alert for one classified instance, if warranted."""
        predicted = classified.predicted
        if predicted not in self.policy.aggressive_classes:
            return None
        confidence = classified.confidence
        if confidence < self.policy.min_confidence:
            return None
        timestamp = classified.instance.timestamp
        action = self.policy.action_for(confidence)
        if user_id is not None:
            action = self._maybe_escalate(user_id, timestamp, action)
        alert = Alert(
            tweet_id=classified.instance.tweet_id,
            user_id=user_id,
            predicted_class=predicted,
            confidence=confidence,
            timestamp=timestamp,
            action=action,
        )
        self.alerts.append(alert)
        for sink in self._sinks:
            sink(alert)
        return alert

    def process_batch(
        self, block: ClassifiedBlock, user_ids: Sequence[Optional[str]]
    ) -> List[Alert]:
        """Process a micro-batch drain of classified instances.

        The micro-batch engine hands over each partition's unlabeled
        rows as one columnar block (``user_ids[i]`` wrote row ``i``).
        The non-alerting majority is rejected on the predicted-class and
        confidence columns; only a row that raises an alert becomes a
        :class:`ClassifiedInstance`. Returns the alerts raised, in order.
        """
        aggressive = self.policy.aggressive_classes
        min_confidence = self.policy.min_confidence
        probas = block.probas
        raised: List[Alert] = []
        for row, predicted in enumerate(block.predicted):
            if (
                predicted in aggressive
                and probas[row, predicted] >= min_confidence
            ):
                alert = self.process(block.classified(row), user_ids[row])
                raised.append(alert)  # type: ignore[arg-type]
        return raised

    def _maybe_escalate(
        self, user_id: str, timestamp: float, action: AlertAction
    ) -> AlertAction:
        history = self._user_history.get(user_id)
        if history is None:
            history = self._user_history[user_id] = deque()
        history.append(timestamp)
        cutoff = timestamp - self.policy.history_window
        while history and history[0] < cutoff:
            history.popleft()
        if len(history) >= self.policy.suspend_after:
            self.suspended_users[user_id] = timestamp
            return AlertAction.SUSPEND_USER
        return action

    @property
    def n_alerts(self) -> int:
        """Total alerts raised."""
        return len(self.alerts)

    def alerts_by_action(self) -> Dict[AlertAction, int]:
        """Histogram of alerts by action type."""
        histogram: Dict[AlertAction, int] = {}
        for alert in self.alerts:
            histogram[alert.action] = histogram.get(alert.action, 0) + 1
        return histogram
