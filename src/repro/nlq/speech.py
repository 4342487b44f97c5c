"""A phonetically plausible noisy channel — the speech-recognition stand-in.

The real MUVE transcribes microphone input with the browser Web Speech API,
whose errors are the root cause of the ambiguity MUVE fights.  Offline we
simulate that channel: each word of the true utterance is, with some
probability, replaced by a phonetically similar word drawn from a confusion
vocabulary (weighted by similarity), or perturbed at the character level
when no confusable neighbour exists.  The output is exactly the error class
the candidate generator targets, so the end-to-end pipeline (speak ->
mis-transcribe -> translate -> recover via multiplot) is exercised for real.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.caching.phonetic import phonetic_probe_cache
from repro.phonetics.index import PhoneticIndex
from repro.resilience import current_deadline
from repro.testing.faults import fault_point

_ADJACENT_KEYS = {
    "a": "qs", "b": "vn", "c": "xv", "d": "sf", "e": "wr", "f": "dg",
    "g": "fh", "h": "gj", "i": "uo", "j": "hk", "k": "jl", "l": "k",
    "m": "n", "n": "bm", "o": "ip", "p": "o", "q": "wa", "r": "et",
    "s": "ad", "t": "ry", "u": "yi", "v": "cb", "w": "qe", "x": "zc",
    "y": "tu", "z": "x",
}


class SpeechLexicon:
    """The words a recogniser can output, indexed for confusion lookups:
    every word of every phrase, lowercased, in first-seen order."""

    def __init__(self, vocabulary: Iterable[str]) -> None:
        self.index = PhoneticIndex()
        self.words: list[str] = []
        for phrase in vocabulary:
            for word in str(phrase).split():
                lowered = word.lower()
                if lowered not in self.index:
                    self.words.append(lowered)
                self.index.add(lowered)


class SpeechSimulator:
    """Corrupts utterances with phonetically plausible recognition errors.

    Parameters
    ----------
    vocabulary:
        Words/phrases the recogniser could plausibly output (typically the
        database vocabulary plus common function words), or a callable
        returning the current :class:`SpeechLexicon`, resolved once per
        :meth:`transcribe`: :class:`~repro.muve.Muve` passes the lexicon
        of the database's index bundle, so the channel follows the
        table's vocabulary.
    word_error_rate:
        Probability that any given word is mis-recognised.
    seed:
        RNG seed; every simulator with the same seed and inputs produces
        the same transcripts.

    The noise generator is derived per utterance from ``(seed,
    utterance)`` rather than drawn from one sequential stream, so
    :meth:`transcribe` is a pure function: the same utterance always gets
    the same transcript regardless of call order or the thread it runs on.
    That is what makes voice questions cacheable and concurrent runs
    reproducible.
    """

    def __init__(self,
                 vocabulary: Iterable[str] | Callable[[], SpeechLexicon],
                 word_error_rate: float = 0.15,
                 deletion_rate: float = 0.0,
                 insertion_rate: float = 0.0,
                 seed: int = 0) -> None:
        for name, rate in (("word_error_rate", word_error_rate),
                           ("deletion_rate", deletion_rate),
                           ("insertion_rate", insertion_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1]")
        if callable(vocabulary):
            self._lexicon = vocabulary
        else:
            lexicon = SpeechLexicon(vocabulary)
            self._lexicon = lambda: lexicon
        self.word_error_rate = word_error_rate
        self.deletion_rate = deletion_rate
        self.insertion_rate = insertion_rate
        self._seed = seed

    def transcribe(self, utterance: str) -> str:
        """Simulate recognising *utterance*; returns the noisy transcript.

        Per word: with ``deletion_rate`` the word is dropped entirely
        (clipped audio); otherwise with ``word_error_rate`` it is replaced
        by a phonetically similar confusion; with ``insertion_rate`` a
        spurious vocabulary word is hallucinated after it.
        """
        fault_point("speech.transcribe")
        deadline = current_deadline()
        if deadline is not None:
            deadline.check("speech.transcribe")
        from repro.sqldb.sampling import derive_rng
        rng = derive_rng(self._seed, "speech", utterance)
        lexicon = self._lexicon()
        words = utterance.split()
        output: list[str] = []
        for word in words:
            if self.deletion_rate and rng.random() < \
                    self.deletion_rate:
                continue
            if rng.random() < self.word_error_rate:
                output.append(self._confuse(word, rng, lexicon))
            else:
                output.append(word)
            if (self.insertion_rate and lexicon.words
                    and rng.random() < self.insertion_rate):
                output.append(lexicon.words[
                    int(rng.integers(len(lexicon.words)))])
        return " ".join(output)

    def _confuse(self, word: str, rng: np.random.Generator,
                 lexicon: SpeechLexicon) -> str:
        """One mis-recognition of *word*."""
        neighbours = [st for st in phonetic_probe_cache().most_similar(
            lexicon.index, word.lower(), 8, include_self=False)
            if st.score >= 0.6]
        if neighbours:
            weights = np.array([st.score ** 4 for st in neighbours])
            weights /= weights.sum()
            choice = rng.choice(len(neighbours), p=weights)
            replacement = neighbours[int(choice)].term
            return _match_case(word, replacement)
        return self._typo(word, rng)

    def _typo(self, word: str, rng: np.random.Generator) -> str:
        """Character-level fallback noise for out-of-vocabulary words."""
        if len(word) < 2:
            return word
        position = int(rng.integers(len(word)))
        ch = word[position].lower()
        candidates = _ADJACENT_KEYS.get(ch, "")
        if not candidates:
            return word
        replacement = candidates[int(rng.integers(len(candidates)))]
        if word[position].isupper():
            replacement = replacement.upper()
        return word[:position] + replacement + word[position + 1:]


def _match_case(original: str, replacement: str) -> str:
    """Carry the original word's capitalisation onto the replacement."""
    if original.isupper():
        return replacement.upper()
    if original[:1].isupper():
        return replacement.capitalize()
    return replacement


def build_default_vocabulary(terms: Sequence[str]) -> list[str]:
    """Database vocabulary plus the function words users speak in queries."""
    function_words = [
        "what", "is", "the", "average", "total", "sum", "count", "number",
        "of", "maximum", "minimum", "highest", "lowest", "for", "where",
        "with", "and", "in", "show", "me",
    ]
    return list(terms) + function_words
