"""Feature extraction (Fig. 1, step 2; §IV-B).

Extracts the paper's 16 features — profile, network, basic text,
syntactic (POS), stylistic, sentiment, and swear counts — plus the
bag-of-words feature (adaptive or fixed). Features that count removed
content (hashtags, URLs, mentions, uppercase words) are computed on the
raw token stream; word-level features use the preprocessed tokens when
preprocessing is enabled, or the polluted raw word view when disabled
(the p=OFF arm of Fig. 6).

Degrade tiers: under overload the extractor can shed its most expensive
stages (:class:`DegradeTier`). Skipped features are *imputed* with a
fixed constant instead of removed, so the vector width, feature order,
and accumulated normalizer statistics all stay valid across tier
switches — the model keeps training and predicting on 17-wide vectors
throughout a degradation episode.
"""

from __future__ import annotations

import enum
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.adaptive_bow import AdaptiveBagOfWords, FixedBagOfWords
from repro.data.tweet import Tweet, TweetItem, TweetLine
from repro.streamml.instance import Instance, InstanceBlock
from repro.text.analysis import analyze
from repro.text.lexicons import SWEAR_WORDS

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.obs.metrics import MetricsRegistry

#: Feature order. The first 16 are the paper's features (Fig. 5); the
#: 17th is the (adaptive or fixed) bag-of-words match count.
FEATURE_NAMES: Tuple[str, ...] = (
    "accountAge",
    "cntPosts",
    "cntLists",
    "cntFollowers",
    "cntFriends",
    "numHashtags",
    "numUpperCases",
    "numUrls",
    "cntAdjective",
    "cntAdverbs",
    "cntVerbs",
    "wordsPerSentence",
    "meanWordLength",
    "sentimentScorePos",
    "sentimentScoreNeg",
    "cntSwearWords",
    "bowMatches",
)

N_FEATURES = len(FEATURE_NAMES)

BagOfWords = Union[AdaptiveBagOfWords, FixedBagOfWords]


class DegradeTier(enum.IntEnum):
    """Feature-pipeline cost tiers for overload degradation.

    Ordered cheapest-last: higher tiers shed more per-tweet work. The
    overload controller walks one step at a time in either direction.
    """

    #: All 17 features (the paper's configuration).
    FULL = 0
    #: Skip POS tagging — the costliest extraction stage. The three
    #: syntactic counts are imputed with :data:`TIER_IMPUTED_VALUE`.
    NO_POS = 1
    #: Additionally skip sentiment scoring and deobfuscation, leaving
    #: only tokenization-level text features, profile counters, swear
    #: and bag-of-words matches.
    TEXT_ONLY = 2


#: Fixed value substituted for features a degraded tier skips. A
#: constant (rather than e.g. a running mean) keeps degraded vectors
#: deterministic and the normalizer's per-feature statistics valid.
TIER_IMPUTED_VALUE = 0.0

#: Feature names skipped (imputed) at each tier.
TIER_SKIPPED_FEATURES: Dict[DegradeTier, FrozenSet[str]] = {
    DegradeTier.FULL: frozenset(),
    DegradeTier.NO_POS: frozenset(
        {"cntAdjective", "cntAdverbs", "cntVerbs"}
    ),
    DegradeTier.TEXT_ONLY: frozenset(
        {
            "cntAdjective",
            "cntAdverbs",
            "cntVerbs",
            "sentimentScorePos",
            "sentimentScoreNeg",
        }
    ),
}


class LabelEncoder:
    """Maps string class labels to contiguous integers.

    The 2-class setup folds "abusive" and "hateful" into a single
    "aggressive" class (§V-A).
    """

    def __init__(self, n_classes: int) -> None:
        if n_classes not in (2, 3):
            raise ValueError(f"n_classes must be 2 or 3, got {n_classes}")
        self.n_classes = n_classes
        if n_classes == 3:
            self._mapping: Dict[str, int] = {
                "normal": 0, "abusive": 1, "hateful": 2,
            }
            self.class_names: Tuple[str, ...] = ("normal", "abusive", "hateful")
        else:
            self._mapping = {
                "normal": 0, "abusive": 1, "hateful": 1, "aggressive": 1,
            }
            self.class_names = ("normal", "aggressive")

    def encode(self, label: Optional[str]) -> Optional[int]:
        """Integer class for a label string (``None`` passes through)."""
        if label is None:
            return None
        if label not in self._mapping:
            raise ValueError(f"unknown label {label!r}")
        return self._mapping[label]

    def decode(self, index: int) -> str:
        """Class name for an integer class."""
        return self.class_names[index]

    def is_aggressive(self, index: int) -> bool:
        """Whether an encoded class is an aggressive one (non-normal)."""
        return index != 0

    @property
    def aggressive_classes(self) -> Tuple[int, ...]:
        """All non-normal class indices."""
        return tuple(range(1, self.n_classes))


class FeatureExtractor:
    """Turns a :class:`Tweet` into a numeric :class:`Instance`.

    Args:
        encoder: label encoder for the 2- or 3-class problem.
        preprocessing: apply text cleaning before word-level features
            (the p toggle of Fig. 6).
        bag_of_words: adaptive or fixed BoW supplying the 17th feature;
            ``None`` falls back to a fixed seed-lexicon BoW.
        tier: degrade tier (see :class:`DegradeTier`); mutable, so an
            overload controller can switch tiers mid-stream.
    """

    def __init__(
        self,
        encoder: Optional[LabelEncoder] = None,
        preprocessing: bool = True,
        bag_of_words: Optional[BagOfWords] = None,
        deobfuscate: bool = False,
        tier: DegradeTier = DegradeTier.FULL,
    ) -> None:
        self.encoder = encoder if encoder is not None else LabelEncoder(3)
        self.preprocessing = preprocessing
        self.bag_of_words: BagOfWords = (
            bag_of_words if bag_of_words is not None else FixedBagOfWords()
        )
        self.tier = DegradeTier(tier)
        self.deobfuscate = deobfuscate
        self._deobfuscator = None
        if deobfuscate:
            from repro.text.deobfuscate import Deobfuscator

            self._deobfuscator = Deobfuscator()

    def extract(self, tweet: TweetItem, update_bow: bool = True) -> Instance:
        """Extract the full feature vector (of a record's parsed tweet).

        When the tweet is labeled and ``update_bow`` is true, the tweet
        also updates the adaptive BoW's rolling statistics (training
        path of Fig. 1).
        """
        if type(tweet) is TweetLine:
            tweet = tweet.tweet
        x, label = self._features(tweet, update_bow)
        # Positional: keyword binding costs ~0.5 us a tweet.
        return Instance(x, label, 1.0, tweet.created_at, tweet.tweet_id)

    def extract_many(
        self,
        tweets: Sequence[TweetItem],
        validate: Optional[Callable[[Tweet], None]] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> InstanceBlock:
        """Extract a run of tweets into one :class:`InstanceBlock`.

        The engines' one parse site: each :class:`TweetLine` is parsed
        here (null-text repairs counted in ``metrics``). Rows are
        extracted in order through :meth:`extract`'s body, so each
        labeled tweet updates the BoW before the next row counts its
        matches, exactly as row-by-row :meth:`extract` calls would.
        ``validate`` (e.g. ``validate_tweet``) runs before each row. The
        first row that fails ends the block: the block holds the rows
        before it and ``block.failure`` is ``(stage, exception,
        tweet_id)`` for ``tweets[len(block)]`` (stage ``"parse"`` —
        ``tweet_id`` is then ``None`` — ``"validate"`` or
        ``"extract"``); no later tweet is touched.
        """
        features = self._features
        xs: List[Tuple[float, ...]] = []
        ys: List[Optional[int]] = []
        timestamps: List[float] = []
        tweet_ids: List[Optional[str]] = []
        user_ids: List[Optional[str]] = []
        tweet = None
        stage = "extract"
        failure = None
        try:
            for tweet in tweets:
                if type(tweet) is TweetLine:
                    stage = "parse"
                    tweet = tweet.parse(metrics)
                if validate is not None:
                    stage = "validate"
                    validate(tweet)
                stage = "extract"
                x, label = features(tweet, True)
                xs.append(x)
                ys.append(label)
                timestamps.append(tweet.created_at)
                tweet_ids.append(tweet.tweet_id)
                user_ids.append(tweet.user.user_id)
        except Exception as exc:
            # A record that did not parse has no id to read.
            failed = None if stage == "parse" else tweet
            failure = (stage, exc, getattr(failed, "tweet_id", None))
        block = InstanceBlock(xs, ys, timestamps, tweet_ids, user_ids)
        block.failure = failure
        return block

    def _features(
        self, tweet: Tweet, update_bow: bool
    ) -> Tuple[Tuple[float, ...], Optional[int]]:
        """The one per-row feature body: ``(17 features, label)``."""
        tier = self.tier
        want_pos = tier < DegradeTier.NO_POS
        want_sentiment = tier < DegradeTier.TEXT_ONLY
        (
            n_hashtags, n_urls, n_uppercase, lower_words, total_word_chars,
            n_sentences, n_adjectives, n_adverbs, n_verbs, n_swear,
            positive, negative,
        ) = analyze(
            tweet.text, None, self.preprocessing, want_pos, want_sentiment
        )
        n_words = len(lower_words)
        if self._deobfuscator is not None and want_sentiment:
            # Normalize disguised profanity ("sh1t", "i.d.i.o.t") back
            # to canonical forms before lexicon/BoW matching. The
            # records' swear flags describe the original spellings, so
            # the count is retaken over the rewritten ones.
            deobfuscate = self._deobfuscator.deobfuscate
            lower_words = [deobfuscate(w) for w in lower_words]
            n_swear = sum(1 for w in lower_words if w in SWEAR_WORDS)
        label = self.encoder.encode(tweet.label)
        if update_bow and label is not None:
            self.bag_of_words.update(
                lower_words, is_aggressive=self.encoder.is_aggressive(label)
            )
        user = tweet.user
        created_at = tweet.created_at
        # Features a degraded tier shed are imputed, not dropped.
        if not want_pos:
            n_adjectives = n_adverbs = n_verbs = TIER_IMPUTED_VALUE
        if not want_sentiment:
            positive = negative = TIER_IMPUTED_VALUE
        x = (
            user.account_age_days(created_at),
            float(user.statuses_count),
            float(user.listed_count),
            float(user.followers_count),
            float(user.friends_count),
            float(n_hashtags),
            float(n_uppercase),
            float(n_urls),
            float(n_adjectives),
            float(n_adverbs),
            float(n_verbs),
            # Text without a terminator counts as one sentence.
            n_words / n_sentences if n_sentences else float(n_words),
            total_word_chars / n_words if n_words else 0.0,
            float(positive),
            float(negative),
            float(n_swear),
            float(self.bag_of_words.count_matches(lower_words)),
        )
        return x, label

    def feature_index(self, name: str) -> int:
        """Index of a feature by name."""
        return FEATURE_NAMES.index(name)
