"""``enumerate_reduced``'s stream as words, for the test modules."""

from vclab.words import Word, enumerate_reduced


def reduced_words(alph, max_len, first=None):
    """``enumerate_reduced``'s stream as words, each built by the checking constructor."""
    return [Word(alph, syllables) for syllables in enumerate_reduced(alph, max_len, first)]
