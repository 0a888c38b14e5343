"""Dataset substrate: tweet model, synthetic datasets, stream loaders.

Real Twitter datasets cannot be redistributed and the Twitter API is
gated, so this subpackage generates synthetic analogs calibrated to the
published statistics of the three datasets the paper evaluates on:

* :mod:`repro.data.synthetic` — the Founta et al. abusive dataset
  (86k tweets: 53,835 normal / 27,179 abusive / 4,970 hateful,
  collected over 10 days, with per-class feature distributions
  matching Fig. 4 and day-over-day vocabulary drift);
* :mod:`repro.data.sarcasm` — the Sarcasm dataset (61k / 6.5k sarcastic);
* :mod:`repro.data.offensive` — the Offensive dataset (16k / 2k racist /
  3k sexist).

:mod:`repro.data.tweet` defines the Twitter-JSON-compatible data model
and :mod:`repro.data.loader` reads/writes JSONL streams and mixes
labeled/unlabeled streams.
"""

from repro.data.firehose import FirehoseWorkload
from repro.data.loader import (
    interleave_streams,
    read_jsonl,
    write_jsonl,
)
from repro.data.offensive import OffensiveDatasetGenerator
from repro.data.sarcasm import SarcasmDatasetGenerator
from repro.data.synthetic import (
    ABUSIVE,
    CLASS_NAMES,
    HATEFUL,
    NORMAL,
    AbusiveDatasetGenerator,
)
from repro.data.tweet import Tweet, UserProfile

__all__ = [
    "FirehoseWorkload",
    "interleave_streams",
    "read_jsonl",
    "write_jsonl",
    "OffensiveDatasetGenerator",
    "SarcasmDatasetGenerator",
    "ABUSIVE",
    "CLASS_NAMES",
    "HATEFUL",
    "NORMAL",
    "AbusiveDatasetGenerator",
    "Tweet",
    "UserProfile",
]
