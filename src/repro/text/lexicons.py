"""Word lexicons: swear words, sentiment scores, POS word lists.

The paper seeds its adaptive bag-of-words with 347 swear words from
noswearing.com and scores sentiment with SentiStrength. Both resources
are external/closed, so we ship self-contained equivalents:

* :func:`swear_words` — a curated base list of common profanity expanded
  with deterministic obfuscated variants (leetspeak, plural/suffix
  forms), truncated to **exactly 347 entries** so Fig. 10's initial BoW
  size matches the paper.
* :func:`sentiment_lexicon` — an AFINN-style map from word to integer
  strength in [-5, 5].
* POS word lists used by the suffix-rule tagger.

Only the list sizes and their overlap with generated tweet text matter
for the reproduction; slurs targeting protected groups are deliberately
excluded.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Tuple

SWEAR_LIST_SIZE = 347

_BASE_SWEAR_WORDS: Tuple[str, ...] = (
    "arse", "arsehole", "ass", "asshat", "asshole", "asswipe",
    "bastard", "bellend", "bitch", "bitchy", "bloody", "bollocks",
    "bugger", "bullshit", "bullshitter", "crap", "crappy", "cock",
    "cockup", "damn", "damned", "dammit", "dick", "dickhead",
    "dimwit", "dipshit", "douche", "douchebag", "dumbass", "dumbfuck",
    "effing", "fck", "feck", "frigging", "fuck", "fucked", "fucker",
    "fuckface", "fuckhead", "fucking", "fuckoff", "fuckwit", "goddamn",
    "goddamned", "hell", "hellhole", "horseshit", "jackass", "jerk",
    "jerkoff", "knob", "knobhead", "loser", "lowlife", "moron",
    "moronic", "motherfucker", "motherfucking", "numbnuts", "nutjob",
    "piss", "pissed", "pisser", "pissoff", "prick", "punk", "scum",
    "scumbag", "shit", "shite", "shitface", "shithead", "shithole",
    "shitshow", "shitty", "skank", "slut", "sod", "sodding", "screwed",
    "stupid", "tosser", "trash", "turd", "twat", "twit", "wanker",
    "weasel", "whore", "wuss", "arsewipe", "badass", "bampot",
    "bonehead", "bozo", "buffoon", "chump", "clown", "cretin",
    "degenerate", "dirtbag", "dork", "dolt", "dunce", "freak",
    "halfwit", "idiot", "idiotic", "imbecile", "ignoramus", "maggot",
    "meathead", "muppet", "nimrod", "nitwit", "numpty", "oaf",
    "pathetic", "pinhead", "pillock", "plonker", "pondscum", "prat",
    "psycho", "rat", "reject", "schmuck", "sleaze", "sleazebag",
    "slob", "snake", "sucker", "swine", "tool", "troll", "vermin",
    "waste", "weirdo", "worm", "wretch", "garbage", "filth", "creep",
)

_LEET_SUBSTITUTIONS: Tuple[Tuple[str, str], ...] = (
    ("a", "4"),
    ("e", "3"),
    ("i", "1"),
    ("o", "0"),
    ("s", "$"),
)

_SUFFIXES: Tuple[str, ...] = ("s", "er", "ing")


def _variants(word: str):
    """Deterministic obfuscated/inflected variants of a swear word."""
    for old, new in _LEET_SUBSTITUTIONS:
        if old in word:
            yield word.replace(old, new, 1)
    for suffix in _SUFFIXES:
        if not word.endswith(suffix):
            yield word + suffix


@lru_cache(maxsize=None)
def swear_words() -> Tuple[str, ...]:
    """The 347-entry seed swear list (base words first, then variants)."""
    seen = dict.fromkeys(_BASE_SWEAR_WORDS)
    for word in _BASE_SWEAR_WORDS:
        for variant in _variants(word):
            if variant not in seen:
                seen[variant] = None
            if len(seen) >= SWEAR_LIST_SIZE:
                return tuple(seen)
    raise AssertionError(
        f"variant expansion produced only {len(seen)} words; "
        f"expected {SWEAR_LIST_SIZE}"
    )


SWEAR_WORDS: FrozenSet[str] = frozenset(swear_words())


@lru_cache(maxsize=None)
def sentiment_lexicon() -> Dict[str, int]:
    """AFINN-style sentiment strengths in [-5, 5] (0 is never stored)."""
    negative = {
        -5: (
            "motherfucker", "cunt", "fuckface", "fuckhead", "fuckwit",
        ),
        -4: (
            "fuck", "fucking", "fucked", "fucker", "bitch", "bastard",
            "asshole", "shithead", "whore", "slut", "twat", "wanker",
            "prick", "dickhead", "scumbag", "hate", "hateful", "despise",
            "disgusting", "vile", "repulsive",
        ),
        -3: (
            "shit", "shitty", "crap", "crappy", "damn", "dammit",
            "goddamn", "piss", "pissed", "moron", "idiot", "idiotic",
            "imbecile", "stupid", "dumb", "dumbass", "loser", "pathetic",
            "worthless", "useless", "garbage", "trash", "filth", "scum",
            "vermin", "awful", "terrible", "horrible", "dreadful",
            "atrocious", "appalling", "evil", "wicked", "cruel", "nasty",
            "toxic", "rotten", "vicious", "despicable", "detest", "loathe",
            "abhor", "furious", "rage", "enraged", "livid", "maggot",
            "creep", "freak", "psycho", "degenerate", "jerk",
        ),
        -2: (
            "bad", "sad", "angry", "mad", "annoyed", "annoying", "upset",
            "hurt", "pain", "painful", "ugly", "gross", "sick", "fail",
            "failed", "failure", "wrong", "worse", "worst", "lame",
            "boring", "dull", "weak", "sorry", "shame", "shameful",
            "ashamed", "disappointed", "disappointing", "miserable",
            "depressed", "depressing", "unhappy", "afraid", "scared",
            "fear", "worried", "anxious", "lonely", "broken", "cry",
            "crying", "tears", "lost", "hopeless", "ruined", "disaster",
            "mess", "problem", "hate-watch", "bitter", "jealous",
            "offensive", "insult", "insulting", "mock", "mocking",
            "liar", "lying", "fake", "fraud", "cheat", "cheater",
            "betray", "betrayed", "ignorant", "clueless", "incompetent",
            "disgrace", "embarrassing", "cringe", "dirtbag", "sleaze",
        ),
        -1: (
            "no", "not", "never", "nothing", "nobody", "meh", "tired",
            "slow", "late", "cold", "hard", "difficult", "unfortunate",
            "unlucky", "doubt", "doubtful", "confused", "confusing",
            "odd", "strange", "weird", "awkward", "poor", "cheap",
            "petty", "trivial", "mediocre", "average", "dodgy",
        ),
    }
    positive = {
        1: (
            "ok", "okay", "fine", "fair", "decent", "calm", "steady",
            "simple", "easy", "interesting", "curious", "useful",
            "handy", "neat", "tidy", "fresh", "new", "clean", "clear",
            "bright", "warm", "soft", "smooth", "quick", "fast",
        ),
        2: (
            "good", "nice", "happy", "glad", "fun", "funny", "cool",
            "sweet", "kind", "friendly", "helpful", "thanks", "thank",
            "thankful", "grateful", "welcome", "enjoy", "enjoyed",
            "enjoying", "like", "liked", "likes", "smile", "smiling",
            "laugh", "laughing", "pleasant", "pleased", "satisfied",
            "solid", "strong", "healthy", "safe", "win", "winning",
            "hope", "hopeful", "positive", "support", "supportive",
            "proud", "care", "caring", "peace", "peaceful", "relax",
            "relaxed", "comfy", "cozy", "yay", "cheers", "congrats",
        ),
        3: (
            "great", "awesome", "amazing", "excellent", "wonderful",
            "fantastic", "lovely", "beautiful", "gorgeous", "delightful",
            "brilliant", "superb", "impressive", "inspiring", "inspired",
            "excited", "exciting", "thrilled", "joy", "joyful", "love",
            "loved", "loves", "loving", "adorable", "charming",
            "celebrate", "celebration", "victory", "triumph", "success",
            "successful", "perfect", "best", "better", "favorite",
            "incredible", "remarkable", "outstanding",
        ),
        4: (
            "magnificent", "phenomenal", "spectacular", "extraordinary",
            "marvelous", "sublime", "exquisite", "breathtaking",
            "wonderous", "masterpiece", "flawless", "heavenly",
        ),
        5: ("ecstatic", "euphoric", "blissful", "overjoyed", "rapturous"),
    }
    lexicon: Dict[str, int] = {}
    for strength, entries in negative.items():
        for word in entries:
            lexicon[word] = strength
    for strength, entries in positive.items():
        for word in entries:
            lexicon[word] = strength
    return lexicon


@lru_cache(maxsize=None)
def booster_words() -> Dict[str, int]:
    """Words that amplify (+1) or dampen (-1) the following sentiment word."""
    return {
        "very": 1, "really": 1, "so": 1, "extremely": 1, "absolutely": 1,
        "totally": 1, "utterly": 1, "completely": 1, "incredibly": 1,
        "super": 1, "damn": 1, "fucking": 1, "bloody": 1,
        "somewhat": -1, "slightly": -1, "barely": -1, "hardly": -1,
        "kinda": -1, "sorta": -1, "rather": -1,
    }


@lru_cache(maxsize=None)
def negation_words() -> FrozenSet[str]:
    """Words that flip the polarity of the following sentiment word."""
    return frozenset(
        (
            "not", "no", "never", "neither", "nor", "cannot", "cant",
            "can't", "dont", "don't", "doesnt", "doesn't", "didnt",
            "didn't", "isnt", "isn't", "wasnt", "wasn't", "wont",
            "won't", "wouldnt", "wouldn't", "shouldnt", "shouldn't",
            "aint", "ain't", "without",
        )
    )


#: Twitter-specific abbreviations removed during preprocessing.
TWITTER_ABBREVIATIONS: FrozenSet[str] = frozenset(
    ("rt", "mt", "ht", "via", "cc", "dm", "ff", "icymi", "tbt", "smh",
     "imo", "imho", "fyi", "btw", "irl", "ikr")
)


# ----------------------------------------------------------------------
# POS word lists (used by repro.text.pos alongside suffix rules)
# ----------------------------------------------------------------------

ADJECTIVES: FrozenSet[str] = frozenset(
    (
        "good", "bad", "big", "small", "old", "new", "young", "long",
        "short", "high", "low", "hot", "cold", "warm", "cool", "fast",
        "slow", "hard", "soft", "easy", "early", "late", "happy", "sad",
        "angry", "calm", "kind", "cruel", "nice", "mean", "smart",
        "stupid", "dumb", "clever", "bright", "dark", "light", "heavy",
        "strong", "weak", "rich", "poor", "clean", "dirty", "fresh",
        "stale", "sweet", "sour", "bitter", "loud", "quiet", "busy",
        "lazy", "brave", "shy", "proud", "humble", "honest", "fake",
        "real", "true", "false", "full", "empty", "open", "closed",
        "free", "cheap", "great", "awesome", "amazing", "terrible",
        "horrible", "awful", "lovely", "beautiful", "ugly", "pretty",
        "gorgeous", "perfect", "broken", "whole", "safe", "dangerous",
        "wild", "tame", "common", "rare", "simple", "complex", "plain",
        "fancy", "modern", "ancient", "huge", "tiny", "wide", "narrow",
        "deep", "shallow", "thick", "thin", "sharp", "blunt", "wrong",
        "right", "best", "worst", "better", "worse", "funny", "serious",
        "weird", "strange", "normal", "odd", "pathetic", "worthless",
        "useless", "useful", "vile", "toxic", "rotten", "nasty",
        "disgusting", "wonderful", "fantastic", "brilliant", "superb",
        "sick", "healthy", "tired", "fine", "okay", "solid", "sunny",
        "rainy", "windy", "cloudy", "local", "global", "public",
        "private", "major", "minor", "main", "extra", "final", "first",
        "last", "next", "previous", "recent", "current", "daily",
        "weekly", "monthly", "annual", "favorite", "important",
        "interesting", "boring", "exciting", "excited", "thrilled",
        "miserable", "hopeless", "hopeful", "grateful", "jealous",
        "bitter", "vicious", "wicked", "evil", "decent", "mediocre",
        "incompetent", "ignorant", "clueless", "moronic", "idiotic",
    )
)

ADVERBS: FrozenSet[str] = frozenset(
    (
        "very", "really", "quite", "too", "so", "almost", "always",
        "never", "often", "sometimes", "rarely", "seldom", "usually",
        "again", "already", "still", "yet", "soon", "now", "then",
        "here", "there", "everywhere", "nowhere", "well", "badly",
        "fast", "hard", "late", "early", "today", "tomorrow",
        "yesterday", "maybe", "perhaps", "probably", "definitely",
        "certainly", "surely", "honestly", "seriously", "literally",
        "actually", "basically", "totally", "completely", "absolutely",
        "extremely", "barely", "hardly", "nearly", "just", "only",
        "even", "also", "instead", "together", "apart", "forever",
        "anymore", "somehow", "somewhere", "anyway", "indeed",
    )
)

VERBS: FrozenSet[str] = frozenset(
    (
        "be", "is", "am", "are", "was", "were", "been", "being", "have",
        "has", "had", "do", "does", "did", "done", "go", "goes", "went",
        "gone", "going", "get", "gets", "got", "gotten", "make",
        "makes", "made", "know", "knows", "knew", "known", "think",
        "thinks", "thought", "take", "takes", "took", "taken", "see",
        "sees", "saw", "seen", "come", "comes", "came", "want", "wants",
        "wanted", "look", "looks", "looked", "use", "uses", "used",
        "find", "finds", "found", "give", "gives", "gave", "given",
        "tell", "tells", "told", "work", "works", "worked", "call",
        "calls", "called", "try", "tries", "tried", "ask", "asks",
        "asked", "need", "needs", "needed", "feel", "feels", "felt",
        "become", "becomes", "became", "leave", "leaves", "left", "put",
        "puts", "mean", "means", "meant", "keep", "keeps", "kept",
        "let", "lets", "begin", "begins", "began", "begun", "seem",
        "seems", "seemed", "help", "helps", "helped", "talk", "talks",
        "talked", "turn", "turns", "turned", "start", "starts",
        "started", "show", "shows", "showed", "shown", "hear", "hears",
        "heard", "play", "plays", "played", "run", "runs", "ran", "move",
        "moves", "moved", "like", "likes", "liked", "live", "lives",
        "lived", "believe", "believes", "believed", "hold", "holds",
        "held", "bring", "brings", "brought", "happen", "happens",
        "happened", "write", "writes", "wrote", "written", "sit",
        "sits", "sat", "stand", "stands", "stood", "lose", "loses",
        "lost", "pay", "pays", "paid", "meet", "meets", "met", "say",
        "says", "said", "read", "reads", "eat", "eats", "ate", "eaten",
        "drink", "drinks", "drank", "love", "loves", "loved", "hate",
        "hates", "hated", "watch", "watches", "watched", "enjoy",
        "enjoys", "enjoyed", "stop", "stops", "stopped", "shut",
        "shuts", "wish", "wishes", "wished", "hope", "hopes", "hoped",
        "thank", "thanks", "thanked", "deserve", "deserves", "deserved",
        "destroy", "destroys", "destroyed", "ruin", "ruins", "ruined",
        "kill", "kills", "killed", "fight", "fights", "fought", "win",
        "wins", "won", "fail", "fails", "failed", "suck", "sucks",
        "sucked", "cry", "cries", "cried", "laugh", "laughs", "laughed",
        "smile", "smiles", "smiled", "share", "shares", "shared",
        "post", "posts", "posted", "tweet", "tweets", "tweeted",
        "follow", "follows", "followed", "block", "blocks", "blocked",
        "report", "reports", "reported", "shout", "shouts", "shouted",
        "scream", "screams", "screamed", "insult", "insults",
        "insulted", "mock", "mocks", "mocked", "despise", "despises",
        "despised", "disgust", "disgusts", "disgusted",
    )
)

PRONOUNS: FrozenSet[str] = frozenset(
    (
        "i", "you", "he", "she", "it", "we", "they", "me", "him", "her",
        "us", "them", "my", "your", "his", "its", "our", "their",
        "mine", "yours", "hers", "ours", "theirs", "myself", "yourself",
        "himself", "herself", "itself", "ourselves", "themselves",
        "who", "whom", "whose", "which", "what", "this", "that",
        "these", "those", "anyone", "everyone", "someone", "nobody",
        "anybody", "everybody", "somebody",
    )
)

DETERMINERS: FrozenSet[str] = frozenset(
    ("a", "an", "the", "some", "any", "each", "every", "all", "both",
     "few", "many", "much", "most", "several", "no", "another", "other")
)

PREPOSITIONS: FrozenSet[str] = frozenset(
    ("in", "on", "at", "by", "for", "with", "about", "against",
     "between", "into", "through", "during", "before", "after",
     "above", "below", "to", "from", "up", "down", "of", "off",
     "over", "under", "around", "near", "without", "within")
)

CONJUNCTIONS: FrozenSet[str] = frozenset(
    ("and", "or", "but", "nor", "so", "yet", "because", "although",
     "though", "while", "if", "unless", "until", "when", "where",
     "since", "than", "that", "whether")
)
