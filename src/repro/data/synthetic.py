"""Synthetic analog of the Founta et al. abusive-tweet dataset.

The paper's main dataset contains 86k labeled tweets — 53,835 normal,
27,179 abusive, and 4,970 hateful — collected over ~10 consecutive days
(~8-9k tweets per day). Real tweet text cannot be redistributed, so
:class:`AbusiveDatasetGenerator` synthesizes a stream with the same:

* class counts and 10-day timeline;
* per-class feature statistics (Fig. 4): account-age means
  1487.74 / 1291.97 / 1379.95 days, uppercase-word means
  0.96 / 1.84 / 1.57, words-per-sentence 16.66 / 12.66 / 15.93,
  swear-word means 0.10 / 2.54 / 1.84, sentiment and POS shifts;
* day-over-day vocabulary drift: aggressive tweets progressively adopt
  "emerging" insult words that are absent from the seed swear lexicon,
  which is what the adaptive bag-of-words (Fig. 9/10) and the
  batch-staleness comparison (Fig. 13/14) react to.

Class overlap is injected deliberately (normal "complaint" tweets with
negative words and the occasional mild swear; aggressive tweets with no
lexicon profanity) and calibrated so streaming classifiers land in the
paper's 83–91% F1 band rather than saturating.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.data import vocab
from repro.data.tweet import SECONDS_PER_DAY, Tweet, UserProfile

NORMAL = 0
ABUSIVE = 1
HATEFUL = 2
CLASS_NAMES: Tuple[str, ...] = ("normal", "abusive", "hateful")

#: Class counts of the paper's dataset (86k tweets after spam removal).
PAPER_CLASS_COUNTS: Tuple[int, int, int] = (53835, 27179, 4970)
PAPER_TOTAL = sum(PAPER_CLASS_COUNTS)
PAPER_N_DAYS = 10

#: Default stream start: 2020-01-01 00:00:00 UTC.
DEFAULT_START_TIME = 1577836800.0

_ACCOUNT_AGE_MEANS = {NORMAL: 1487.74, ABUSIVE: 1291.97, HATEFUL: 1379.95}
_ACCOUNT_AGE_STD = 850.0
_UPPERCASE_PARAMS = {  # (P(zero), Poisson mean for the non-zero branch)
    NORMAL: (0.65, 1.7),
    ABUSIVE: (0.45, 2.3),
    HATEFUL: (0.50, 2.1),
}
_HASHTAG_RATES = {NORMAL: 0.5, ABUSIVE: 0.15, HATEFUL: 0.3}
_URL_PROBS = {NORMAL: 0.25, ABUSIVE: 0.05, HATEFUL: 0.10}
_MENTION_PROBS = {NORMAL: 0.25, ABUSIVE: 0.70, HATEFUL: 0.20}

_COMPLAINT_CLAUSES: Tuple[str, ...] = (
    "the {noun} at the {place} was {neg_adj} today",
    "honestly this {noun} has been {neg_adj} all {time}",
    "so tired of the {neg_adj} {noun} at the {place}",
    "the {time} {noun} was {neg_adj} and the queue was {neg_adj}",
    "my {noun} broke again and the {time} felt {neg_adj}",
)

_MILD_ABUSIVE_CLAUSES: Tuple[str, ...] = (
    "your {noun} is {neg_adj} and {neg_adj}",
    "stop posting this {neg_adj} {noun} already",
    "you clearly know nothing about this {noun}",
    "that take on the {noun} was {neg_adj} and wrong",
    "you keep sharing the most {neg_adj} {noun}",
)

_MILD_HATEFUL_CLAUSES: Tuple[str, ...] = (
    "the {group} around the {place} keep making the {noun} {neg_adj}",
    "i am done with {group} and their {neg_adj} {noun}",
    "{group} always make every {noun} {neg_adj}",
)


@dataclass
class DriftConfig:
    """Controls the emerging-vocabulary drift across collection days.

    ``start_fraction``/``end_fraction`` set the probability that an
    insult slot in an aggressive tweet is filled with an emerging word
    (absent from the seed lexicon) on the first/last day; the fraction
    interpolates linearly in between. ``initial_unlocked`` /
    ``unlocked_per_day`` control how much of the emerging pool is in
    circulation on each day.
    """

    enabled: bool = True
    start_fraction: float = 0.10
    end_fraction: float = 0.50
    initial_unlocked: int = 40
    unlocked_per_day: int = 30


@dataclass
class NoiseConfig:
    """Class-overlap knobs, calibrated to the paper's F1 band.

    ``complaint_rate``: fraction of normal tweets that are negative
    "complaints"; ``complaint_swear_prob``: chance such a complaint
    contains one mild swear. ``mild_rate``: fraction of aggressive
    tweets with no lexicon profanity at all.

    ``swap_aggressive``/``swap_normal`` model content-ambiguous tweets:
    human annotators label from context a feature extractor cannot see,
    so a fraction of aggressive tweets read entirely like normal ones
    (and vice versa). These fractions set the irreducible Bayes error
    that pins streaming F1 to the paper's band.
    """

    complaint_rate: float = 0.10
    complaint_swear_prob: float = 0.30
    mild_rate: float = 0.09
    swap_aggressive: float = 0.09
    swap_normal: float = 0.04
    #: Fraction of aggressive tweets whose swear words are disguised
    #: with leetspeak/separators to dodge word filters (§I's evasion
    #: behaviour; exercised by the deobfuscation extension).
    obfuscation_rate: float = 0.0


class AbusiveDatasetGenerator:
    """Deterministic synthetic stream mirroring the paper's dataset.

    Args:
        n_tweets: total tweets (defaults to the paper's 85,984); class
            proportions always follow the paper.
        seed: RNG seed; identical seeds produce identical streams.
        n_days: collection days (paper: 10).
        start_time: epoch seconds of the first tweet.
        drift: emerging-vocabulary drift configuration.
        noise: class-overlap configuration.
    """

    def __init__(
        self,
        n_tweets: Optional[int] = None,
        seed: int = 42,
        n_days: int = PAPER_N_DAYS,
        start_time: float = DEFAULT_START_TIME,
        drift: Optional[DriftConfig] = None,
        noise: Optional[NoiseConfig] = None,
        user_pool_size: Optional[int] = None,
    ) -> None:
        if n_tweets is not None and n_tweets < n_days:
            raise ValueError("n_tweets must be >= n_days")
        if n_days < 1:
            raise ValueError("n_days must be >= 1")
        if user_pool_size is not None and user_pool_size < 3:
            raise ValueError("user_pool_size must be >= 3")
        self.n_tweets = n_tweets if n_tweets is not None else PAPER_TOTAL
        self.seed = seed
        self.n_days = n_days
        self.start_time = start_time
        self.drift = drift if drift is not None else DriftConfig()
        self.noise = noise if noise is not None else NoiseConfig()
        #: When set, tweets are authored by a shared pool of recurring
        #: users (sized proportionally per class) instead of a fresh
        #: user per tweet — required for repeat-offender experiments.
        self.user_pool_size = user_pool_size
        self.class_counts = self._scaled_counts(self.n_tweets)
        self._emerging = vocab.emerging_insults()
        self._user_pools: Optional[List[List[UserProfile]]] = None

    @staticmethod
    def _scaled_counts(n_tweets: int) -> Tuple[int, int, int]:
        abusive = round(n_tweets * PAPER_CLASS_COUNTS[ABUSIVE] / PAPER_TOTAL)
        hateful = round(n_tweets * PAPER_CLASS_COUNTS[HATEFUL] / PAPER_TOTAL)
        normal = n_tweets - abusive - hateful
        return (normal, abusive, hateful)

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------

    def _label_schedule(self, rng: random.Random) -> List[List[int]]:
        """Per-day shuffled label lists with near-constant class mix."""
        per_day: List[List[int]] = [[] for _ in range(self.n_days)]
        for label, count in enumerate(self.class_counts):
            base, remainder = divmod(count, self.n_days)
            for day in range(self.n_days):
                day_count = base + (1 if day < remainder else 0)
                per_day[day].extend([label] * day_count)
        for day_labels in per_day:
            rng.shuffle(day_labels)
        return per_day

    def _emerging_fraction(self, day: int) -> float:
        if not self.drift.enabled:
            return 0.0
        if self.n_days == 1:
            return self.drift.start_fraction
        progress = day / (self.n_days - 1)
        return (
            self.drift.start_fraction
            + (self.drift.end_fraction - self.drift.start_fraction) * progress
        )

    def _unlocked_pool(self, day: int) -> Sequence[str]:
        if not self.drift.enabled:
            return self._emerging[: self.drift.initial_unlocked]
        unlocked = self.drift.initial_unlocked + day * self.drift.unlocked_per_day
        return self._emerging[: min(unlocked, len(self._emerging))]

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def generate(self) -> Iterator[Tweet]:
        """Yield labeled tweets in timestamp order."""
        rng = random.Random(self.seed)
        schedule = self._label_schedule(rng)
        tweet_index = 0
        for day, day_labels in enumerate(schedule):
            if not day_labels:
                continue
            spacing = SECONDS_PER_DAY / (len(day_labels) + 1)
            day_start = self.start_time + day * SECONDS_PER_DAY
            for slot, label in enumerate(day_labels):
                created_at = day_start + (slot + 1) * spacing
                yield self._make_tweet(rng, tweet_index, label, day, created_at)
                tweet_index += 1

    def generate_list(self) -> List[Tweet]:
        """Materialize the full stream."""
        return list(self.generate())

    def generate_days(self) -> List[List[Tweet]]:
        """Stream split into per-day lists (for the batch regimes)."""
        days: List[List[Tweet]] = [[] for _ in range(self.n_days)]
        for tweet in self.generate():
            days[tweet.day_index(self.start_time)].append(tweet)
        return days

    # ------------------------------------------------------------------
    # Tweet assembly
    # ------------------------------------------------------------------

    def _pooled_user(
        self, rng: random.Random, label: int, now: float
    ) -> UserProfile:
        if self._user_pools is None:
            assert self.user_pool_size is not None
            self._user_pools = []
            next_id = 0
            for pool_label, count in enumerate(self.class_counts):
                share = max(
                    1, round(self.user_pool_size * count / self.n_tweets)
                )
                pool = []
                for _ in range(share):
                    pool.append(
                        self._make_user(rng, next_id, pool_label, self.start_time)
                    )
                    next_id += 1
                self._user_pools.append(pool)
        return rng.choice(self._user_pools[label])

    def _make_tweet(
        self,
        rng: random.Random,
        index: int,
        label: int,
        day: int,
        created_at: float,
    ) -> Tweet:
        text = self._make_text(rng, label, day)
        if self.user_pool_size is not None:
            user = self._pooled_user(rng, label, created_at)
        else:
            user = self._make_user(rng, index, label, created_at)
        return Tweet(
            tweet_id=str(1_000_000 + index),
            text=text,
            created_at=created_at,
            user=user,
            is_retweet=rng.random() < 0.15,
            is_reply=rng.random() < (0.5 if label == ABUSIVE else 0.2),
            label=CLASS_NAMES[label],
        )

    def _make_text(self, rng: random.Random, label: int, day: int) -> str:
        style = self._style_label(rng, label)
        if style == NORMAL:
            body = self._normal_body(rng)
        elif style == ABUSIVE:
            body = self._abusive_body(rng, day)
        else:
            body = self._hateful_body(rng, day)
        body = self._apply_uppercase(rng, style, body)
        return self._decorate(rng, style, body)

    def _style_label(self, rng: random.Random, label: int) -> int:
        """Content style, which diverges from the annotation for the
        content-ambiguous fraction (see :class:`NoiseConfig`)."""
        if label == NORMAL:
            if rng.random() < self.noise.swap_normal:
                return ABUSIVE
        elif rng.random() < self.noise.swap_aggressive:
            return NORMAL
        return label

    def _normal_body(self, rng: random.Random) -> str:
        if rng.random() < self.noise.complaint_rate:
            clause = self._fill(rng, rng.choice(_COMPLAINT_CLAUSES), day=0)
            if rng.random() < self.noise.complaint_swear_prob:
                clause += " " + rng.choice(("damn", "hell", "crap"))
            return clause + "."
        clause = self._fill(rng, rng.choice(vocab.NORMAL_CLAUSES), day=0)
        if rng.random() < 0.68:
            clause += " " + self._fill(rng, rng.choice(vocab.NORMAL_TAILS), day=0)
        ending = "!" if rng.random() < 0.3 else "."
        return clause + ending

    def _abusive_body(self, rng: random.Random, day: int) -> str:
        if rng.random() < self.noise.mild_rate:
            return self._fill(rng, rng.choice(_MILD_ABUSIVE_CLAUSES), day=day) + "."
        clause = self._fill(rng, rng.choice(vocab.ABUSIVE_CLAUSES), day=day)
        if rng.random() < 0.35:
            clause += " " + self._fill(
                rng, rng.choice(vocab.ABUSIVE_CLAUSES), day=day
            )
        ending = "!" if rng.random() < 0.5 else "."
        return clause + ending

    def _hateful_body(self, rng: random.Random, day: int) -> str:
        if rng.random() < self.noise.mild_rate:
            return self._fill(rng, rng.choice(_MILD_HATEFUL_CLAUSES), day=day) + "."
        clause = self._fill(rng, rng.choice(vocab.HATEFUL_CLAUSES), day=day)
        if rng.random() < 0.4:
            clause += " " + self._fill(
                rng, rng.choice(vocab.HATEFUL_CLAUSES), day=day
            )
        ending = "!" if rng.random() < 0.4 else "."
        return clause + ending

    def _pick_insult(self, rng: random.Random, day: int) -> str:
        if rng.random() < self._emerging_fraction(day):
            pool = self._unlocked_pool(day)
            if pool:
                return rng.choice(pool)
        return self._maybe_obfuscate(rng, rng.choice(vocab.SEED_INSULT_NOUNS))

    _LEET_MAP = {"a": "4", "e": "3", "i": "1", "o": "0", "s": "$"}

    def _maybe_obfuscate(self, rng: random.Random, word: str) -> str:
        """Disguise a swear word with leetspeak the lexicon won't match.

        The seed lexicon deliberately contains *single*-substitution
        leet variants (users recycle old tricks), so the evasive form
        substitutes as many characters as possible and is only used
        when it genuinely escapes the lexicon.
        """
        from repro.text.lexicons import SWEAR_WORDS

        if rng.random() >= self.noise.obfuscation_rate:
            return word
        characters = [self._LEET_MAP.get(c, c) for c in word]
        disguised = "".join(characters)
        if disguised != word and disguised not in SWEAR_WORDS:
            return disguised
        return word

    def _fill(self, rng: random.Random, template: str, day: int) -> str:
        replacements = {
            "{pos_adj}": lambda: rng.choice(vocab.POSITIVE_ADJECTIVES),
            "{neu_adj}": lambda: rng.choice(vocab.NEUTRAL_ADJECTIVES),
            "{neg_adj}": lambda: rng.choice(vocab.NEGATIVE_ADJECTIVES),
            "{pos_adv}": lambda: rng.choice(vocab.POSITIVE_ADVERBS),
            "{noun}": lambda: rng.choice(vocab.NEUTRAL_NOUNS),
            "{place}": lambda: rng.choice(vocab.PLACES),
            "{person}": lambda: rng.choice(vocab.PEOPLE),
            "{time}": lambda: rng.choice(vocab.TIME_WORDS),
            "{verb}": lambda: rng.choice(vocab.NEUTRAL_VERBS),
            "{group}": lambda: rng.choice(vocab.HATE_GROUPS),
            "{swear}": lambda: self._pick_swear(rng, day),
            "{insult}": lambda: self._pick_insult(rng, day),
            "{insult_plural}": lambda: self._pick_insult(rng, day) + "s",
        }
        result = template
        for slot, supplier in replacements.items():
            while slot in result:
                result = result.replace(slot, supplier(), 1)
        return result

    def _pick_swear(self, rng: random.Random, day: int) -> str:
        if rng.random() < self._emerging_fraction(day) * 0.5:
            pool = self._unlocked_pool(day)
            if pool:
                return rng.choice(pool)
        return self._maybe_obfuscate(
            rng, rng.choice(vocab.SWEAR_INTENSIFIERS)
        )

    def _apply_uppercase(self, rng: random.Random, label: int, body: str) -> str:
        p_zero, mean = _UPPERCASE_PARAMS[label]
        if rng.random() < p_zero:
            return body
        count = 1 + _poisson(rng, mean)
        words = body.split(" ")
        eligible = [i for i, w in enumerate(words) if len(w) >= 3 and w.isalpha()]
        rng.shuffle(eligible)
        for i in eligible[:count]:
            words[i] = words[i].upper()
        return " ".join(words)

    def _decorate(self, rng: random.Random, label: int, body: str) -> str:
        parts: List[str] = []
        if rng.random() < _MENTION_PROBS[label]:
            parts.append(rng.choice(vocab.MENTION_POOL))
        parts.append(body)
        for _ in range(_poisson(rng, _HASHTAG_RATES[label])):
            parts.append(rng.choice(vocab.HASHTAG_POOL))
        if rng.random() < _URL_PROBS[label]:
            parts.append(rng.choice(vocab.URL_POOL))
        return " ".join(parts)

    def _make_user(
        self, rng: random.Random, index: int, label: int, now: float
    ) -> UserProfile:
        age_days = _truncated_gauss(
            rng, _ACCOUNT_AGE_MEANS[label], _ACCOUNT_AGE_STD, 30.0, 4200.0
        )
        posts_mu = {NORMAL: 6.8, ABUSIVE: 7.4, HATEFUL: 7.1}[label]
        lists_rate = {NORMAL: 3.5, ABUSIVE: 2.9, HATEFUL: 3.2}[label]
        followers_mu = {NORMAL: 5.5, ABUSIVE: 5.0, HATEFUL: 5.2}[label]
        friends_mu = {NORMAL: 5.3, ABUSIVE: 5.6, HATEFUL: 5.5}[label]
        return UserProfile(
            user_id=str(index),
            screen_name=f"user{index}",
            created_at=now - age_days * SECONDS_PER_DAY,
            statuses_count=int(rng.lognormvariate(posts_mu, 1.2)),
            listed_count=_poisson(rng, lists_rate),
            followers_count=int(rng.lognormvariate(followers_mu, 1.5)),
            friends_count=int(rng.lognormvariate(friends_mu, 1.3)),
        )


def _poisson(rng: random.Random, rate: float) -> int:
    if rate <= 0:
        return 0
    threshold = math.exp(-rate)
    k = 0
    product = rng.random()
    while product > threshold:
        k += 1
        product *= rng.random()
    return k


def _truncated_gauss(
    rng: random.Random, mean: float, std: float, lo: float, hi: float
) -> float:
    for _ in range(100):
        value = rng.gauss(mean, std)
        if lo <= value <= hi:
            return value
    return min(max(mean, lo), hi)
