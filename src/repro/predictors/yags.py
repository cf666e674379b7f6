"""YAGS — *Yet Another Global Scheme* (Eden & Mudge, MICRO-31 1998).

A natural extension of the bi-mode idea from the same research group,
implemented here as one of the "future directions" the paper's
conclusion points toward: instead of two *full-size* direction banks,
YAGS keeps the bimodal choice table as the main predictor and stores
only the *exceptions* — the (branch, history) cases that disagree with
the branch's bias — in two small tagged direction caches (a T-cache for
not-taken-biased branches that sometimes take, and an NT-cache for the
converse).

Prediction: the choice table supplies the bias.  The cache for the
*opposite* direction is probed with the gshare index; on a partial-tag
hit its counter overrides the bias, otherwise the bias is used.

Update: the probed cache entry trains (and allocates, with tag
replacement) only when the outcome disagrees with the bias or the entry
already hit; the choice table trains as a normal bimodal table except
it is not decremented (incremented) when its direction was overridden
correctly — mirroring the bi-mode choice predictor's partial update.
"""

from __future__ import annotations

from repro.core.counters import (
    WEAKLY_NOT_TAKEN,
    WEAKLY_TAKEN,
    CounterTable,
    check_index_bits,
)
from repro.core.history import GlobalHistoryRegister
from repro.core.indexing import gshare_index, mask
from repro.core.interfaces import BranchPredictor

__all__ = ["YagsPredictor"]


class _TaggedCache:
    """Direct-mapped cache of (partial tag, 2-bit counter) entries."""

    __slots__ = ("index_bits", "tag_bits", "_tag_mask", "tags", "counters", "init")

    def __init__(self, index_bits: int, tag_bits: int, init: int):
        self.index_bits = index_bits
        self.tag_bits = tag_bits
        self._tag_mask = mask(tag_bits)
        self.init = init
        size = 1 << index_bits
        self.tags = [-1] * size  # -1 = invalid
        self.counters = [init] * size

    def tag_of(self, pc: int) -> int:
        return (pc >> self.index_bits) & self._tag_mask

    def lookup(self, index: int, tag: int):
        """Counter state on hit, else ``None``."""
        if self.tags[index] == tag:
            return self.counters[index]
        return None

    def train(self, index: int, tag: int, taken: bool) -> None:
        """Train on hit; allocate (replacing the resident tag) on miss."""
        if self.tags[index] != tag:
            self.tags[index] = tag
            self.counters[index] = WEAKLY_TAKEN if taken else WEAKLY_NOT_TAKEN
            return
        state = self.counters[index]
        if taken:
            if state < 3:
                self.counters[index] = state + 1
        elif state > 0:
            self.counters[index] = state - 1

    def reset(self) -> None:
        self.tags = [-1] * len(self.tags)
        self.counters = [self.init] * len(self.counters)

    def size_bits(self) -> int:
        """Counter + tag storage."""
        return len(self.tags) * (2 + self.tag_bits)


class YagsPredictor(BranchPredictor):
    """YAGS with partial tags.

    Parameters
    ----------
    choice_index_bits:
        log2 of the bimodal choice table size.
    cache_index_bits:
        log2 of each direction cache's size.
    history_bits:
        Global history length for the cache gshare index.  Defaults to
        ``cache_index_bits``.
    tag_bits:
        Partial tag width (6–8 bits typical; default 6).
    """

    scheme = "yags"

    def __init__(
        self,
        choice_index_bits: int,
        cache_index_bits: int,
        history_bits: int | None = None,
        tag_bits: int = 6,
    ):
        if choice_index_bits < 0:
            raise ValueError(f"choice_index_bits must be >= 0, got {choice_index_bits}")
        check_index_bits(cache_index_bits, "cache_index_bits")
        if history_bits is None:
            history_bits = cache_index_bits
        if not 0 <= history_bits <= cache_index_bits:
            raise ValueError(
                f"history_bits ({history_bits}) must be in [0, {cache_index_bits}]"
            )
        if tag_bits < 1:
            raise ValueError(f"tag_bits must be >= 1, got {tag_bits}")
        self.choice_index_bits = choice_index_bits
        self.cache_index_bits = cache_index_bits
        self.history_bits = history_bits
        self.tag_bits = tag_bits
        self.choice = CounterTable(choice_index_bits, init=WEAKLY_TAKEN)
        self.taken_cache = _TaggedCache(cache_index_bits, tag_bits, WEAKLY_TAKEN)
        self.not_taken_cache = _TaggedCache(
            cache_index_bits, tag_bits, WEAKLY_NOT_TAKEN
        )
        self.ghr = GlobalHistoryRegister(history_bits)
        self._choice_mask = mask(choice_index_bits)

    @property
    def name(self) -> str:
        return (
            f"yags:choice=2^{self.choice_index_bits},"
            f"caches=2x2^{self.cache_index_bits},hist={self.history_bits},"
            f"tag={self.tag_bits}"
        )

    def size_bits(self) -> int:
        return (
            self.choice.size_bits()
            + self.taken_cache.size_bits()
            + self.not_taken_cache.size_bits()
        )

    def reset(self) -> None:
        self.choice.reset()
        self.taken_cache.reset()
        self.not_taken_cache.reset()
        self.ghr.reset()

    # -- internals ----------------------------------------------------------------

    def _cache_index(self, pc: int) -> int:
        return gshare_index(pc, self.ghr.value, self.cache_index_bits, self.history_bits)

    def _probe(self, pc: int):
        """Returns (bias, cache, cache_index, tag, hit_state_or_None)."""
        bias = self.choice.predict(pc & self._choice_mask)
        # exceptions to a taken bias live in the NOT-taken cache and vice versa
        cache = self.not_taken_cache if bias else self.taken_cache
        index = self._cache_index(pc)
        tag = cache.tag_of(pc)
        return bias, cache, index, tag, cache.lookup(index, tag)

    # -- step interface ---------------------------------------------------------------

    def predict(self, pc: int) -> bool:
        bias, _cache, _index, _tag, hit = self._probe(pc)
        if hit is None:
            return bias
        return hit >= 2

    def update(self, pc: int, taken: bool) -> None:
        bias, cache, index, tag, hit = self._probe(pc)
        final = bias if hit is None else hit >= 2

        # train/allocate the exception cache when the branch deviates
        # from its bias, or keep training a resident entry
        if taken != bias or hit is not None:
            cache.train(index, tag, taken)

        # choice table: bimodal update, but (like bi-mode) leave it
        # alone when it was wrong yet the override got it right
        if not (bias != taken and final == taken):
            self.choice.update(pc & self._choice_mask, taken)

        self.ghr.push(taken)

    def _counter_id(self, pc: int) -> int:
        """Counter-id layout: the choice table first, then the taken
        cache, then the not-taken cache.  A cache hit attributes the
        prediction to the hitting cache entry; a miss to the choice
        counter that supplied the bias."""
        bias, _cache, index, _tag, hit = self._probe(pc)
        if hit is None:
            return pc & self._choice_mask
        # a taken bias probes the NOT-taken cache and vice versa
        cache_size = 1 << self.cache_index_bits
        return self.choice.size + (cache_size if bias else 0) + index

    def _num_detail_counters(self) -> int:
        return self.choice.size + 2 * (1 << self.cache_index_bits)
