"""Adaptive bag-of-words feature (§IV-B, Fig. 9/10).

The BoW starts as the 347-word seed swear lexicon. Two rolling word
statistics are maintained — one over recent *aggressive* (abusive or
hateful) tweets and one over recent *normal* tweets. Periodically:

* words that occur frequently in aggressive tweets but are not
  high-occurring in normal tweets are **added**; and
* words that became popular in normal tweets while losing traction in
  aggressive tweets are **removed**.

"Rolling" is implemented by exponential decay: at every maintenance
step all counts are multiplied by ``decay``, so old behaviour fades and
the list tracks transient aggressive vocabulary (the paper's Fig. 10
shows the list growing from 347 to 529 words over the 86k stream).

The distributed engine merges per-partition word-count deltas, so the
structure also supports ``snapshot_delta``/``absorb``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.text.lexicons import swear_words


class AdaptiveBagOfWords:
    """Self-updating aggressive-word list.

    Args:
        seed_words: initial lexicon (defaults to the 347 swear words).
        update_interval: labeled tweets between maintenance passes.
        decay: multiplicative decay applied to all counts at maintenance.
        add_min_count: decayed aggressive count required to add a word.
        add_ratio: aggressive/normal rate ratio required to add a word.
        remove_min_count: decayed normal count required to remove a word.
        remove_ratio: a word is removed when its normal rate exceeds its
            aggressive rate by this factor.
        min_word_length: ignore very short tokens.
    """

    def __init__(
        self,
        seed_words: Optional[Iterable[str]] = None,
        update_interval: int = 1000,
        decay: float = 0.8,
        add_min_count: float = 8.0,
        add_ratio: float = 3.0,
        remove_min_count: float = 20.0,
        remove_ratio: float = 2.0,
        min_word_length: int = 3,
    ) -> None:
        if update_interval < 1:
            raise ValueError("update_interval must be >= 1")
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.words: Set[str] = set(
            seed_words if seed_words is not None else swear_words()
        )
        self.seed: Set[str] = set(self.words)
        self.update_interval = update_interval
        self.decay = decay
        self.add_min_count = add_min_count
        self.add_ratio = add_ratio
        self.remove_min_count = remove_min_count
        self.remove_ratio = remove_ratio
        self.min_word_length = min_word_length
        self._aggressive_counts: Dict[str, float] = {}
        self._normal_counts: Dict[str, float] = {}
        self._aggressive_tweets = 0.0
        self._normal_tweets = 0.0
        self._since_maintenance = 0
        self.n_added = 0
        self.n_removed = 0
        #: (labeled tweets processed, list size) after each maintenance.
        self.size_history: List[Tuple[int, int]] = []
        self._labeled_seen = 0

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    # ------------------------------------------------------------------
    # Feature computation
    # ------------------------------------------------------------------

    def count_matches(self, tokens: Sequence[str]) -> int:
        """Number of tokens present in the current list."""
        return sum(map(self.words.__contains__, tokens))

    # ------------------------------------------------------------------
    # Updating
    # ------------------------------------------------------------------

    def update(self, tokens: Sequence[str], is_aggressive: bool) -> None:
        """Fold one labeled tweet's tokens into the rolling statistics."""
        counts = self._aggressive_counts if is_aggressive else self._normal_counts
        if is_aggressive:
            self._aggressive_tweets += 1
        else:
            self._normal_tweets += 1
        for token in set(tokens):
            if len(token) < self.min_word_length:
                continue
            counts[token] = counts.get(token, 0.0) + 1.0
        self._labeled_seen += 1
        self._since_maintenance += 1
        if self._since_maintenance >= self.update_interval:
            self.maintain()

    def maintain(self) -> None:
        """Run one maintenance pass: add/remove words, then decay."""
        self._since_maintenance = 0
        if self._aggressive_tweets > 0 and self._normal_tweets > 0:
            self._add_trending_words()
            self._remove_fading_words()
        self._decay_counts()
        self.size_history.append((self._labeled_seen, len(self.words)))

    def _rate(self, counts: Dict[str, float], word: str, total: float) -> float:
        if total <= 0:
            return 0.0
        return counts.get(word, 0.0) / total

    def _add_trending_words(self) -> None:
        for word, count in self._aggressive_counts.items():
            if word in self.words or count < self.add_min_count:
                continue
            aggressive_rate = count / self._aggressive_tweets
            normal_rate = self._rate(
                self._normal_counts, word, self._normal_tweets
            )
            if aggressive_rate >= self.add_ratio * max(normal_rate, 1e-9):
                self.words.add(word)
                self.n_added += 1

    def _remove_fading_words(self) -> None:
        to_remove: List[str] = []
        for word in self.words:
            normal_count = self._normal_counts.get(word, 0.0)
            if normal_count < self.remove_min_count:
                continue
            normal_rate = normal_count / self._normal_tweets
            aggressive_rate = self._rate(
                self._aggressive_counts, word, self._aggressive_tweets
            )
            if normal_rate >= self.remove_ratio * max(aggressive_rate, 1e-9):
                to_remove.append(word)
        for word in to_remove:
            self.words.discard(word)
            self.n_removed += 1

    def _decay_counts(self) -> None:
        if self.decay >= 1.0:
            return
        for counts in (self._aggressive_counts, self._normal_counts):
            faded = [w for w, c in counts.items() if c * self.decay < 0.05]
            for word in faded:
                del counts[word]
            for word in counts:
                counts[word] *= self.decay
        self._aggressive_tweets *= self.decay
        self._normal_tweets *= self.decay

    # ------------------------------------------------------------------
    # Distributed merge support
    # ------------------------------------------------------------------

    def absorb(self, delta: "AdaptiveBagOfWords") -> None:
        """Fold a partition delta's raw counts into this instance."""
        for word, count in delta._aggressive_counts.items():
            self._aggressive_counts[word] = (
                self._aggressive_counts.get(word, 0.0) + count
            )
        for word, count in delta._normal_counts.items():
            self._normal_counts[word] = (
                self._normal_counts.get(word, 0.0) + count
            )
        self._aggressive_tweets += delta._aggressive_tweets
        self._normal_tweets += delta._normal_tweets
        self._labeled_seen += delta._labeled_seen
        self._since_maintenance += delta._since_maintenance


class FixedBagOfWords:
    """The ad=OFF baseline: a frozen word list with the same interface."""

    def __init__(self, seed_words: Optional[Iterable[str]] = None) -> None:
        self.words: Set[str] = set(
            seed_words if seed_words is not None else swear_words()
        )

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def count_matches(self, tokens: Sequence[str]) -> int:
        """Number of tokens present in the fixed list."""
        return sum(map(self.words.__contains__, tokens))

    def update(self, tokens: Sequence[str], is_aggressive: bool) -> None:
        """No-op: the fixed list never changes."""

    def maintain(self) -> None:
        """No-op: the fixed list never changes."""
