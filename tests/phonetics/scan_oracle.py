"""The per-term scan ``PhoneticIndex.most_similar`` used to answer small
vocabularies with — kept as the oracle both of its walks are compared
against.

:func:`exhaustive_scan` scores every indexed term with
:func:`phonetic_similarity` (which encodes probe and term afresh on every
call), sorts the whole vocabulary and keeps the first *k*: the ranking the
walks must reproduce bit for bit.
"""

from __future__ import annotations

from repro.phonetics.index import PhoneticIndex, ScoredTerm, phonetic_similarity


def exhaustive_scan(index: PhoneticIndex, probe: str, k: int, *,
                    include_self: bool = True) -> list[ScoredTerm]:
    """The *k* terms of *index* most similar to *probe*, by scoring all."""
    scored = []
    for term in index:
        if not include_self and term == probe:
            continue
        scored.append(ScoredTerm(index.similarity(probe, term), term))
    scored.sort(key=lambda st: (-st.score, st.term))
    return scored[:k]
