"""Optional compiled step drivers for the per-branch automata.

The bi-mode choice/bank feedback defeats counter-major decomposition
(see :mod:`repro.sim.batch_bimode`), leaving a genuinely sequential
per-branch automaton; several comparator schemes are the same.  Each
automaton is ~10 integer operations per branch, so a tiny C loop runs
it one to two orders of magnitude faster than any Python-level
stepping.  This module holds those loops' C source and their ctypes
bindings; :mod:`repro._cbuild` compiles the source with the *system* C
compiler on first use, loads it, and remembers why it could not (no
compiler, ``REPRO_NO_CC=1``, an unloadable object), in which case the
callers fall back to the pure-numpy / pure-Python paths with
bit-identical results.

The fused family loops differ in shape.  ``gshare_fused`` runs
lane-major over blocks of :data:`GSHARE_BLOCK` branches, so each lane's
table stays in cache for a block: the Figure-2 family's 116 tables
(4.4 MB) spill past L2 when every branch visits every lane.
``bimode_fused`` stays branch-major: its 8-lane arena already fits in
L2, and advancing its lanes together keeps their work in flight at
once.

The Section-4 analysis needs every access's (counter, static branch)
substream.  The gshare and bi-mode detailed loops derive their indices
in-loop from the raw PCs and one history register and group each
access into its substream as they run, through the first-seen hash
table every grouping pass here shares; they emit int32 stream ids and
per-stream ``{key, total, taken, miss}`` records, never a per-branch
counter id.  The other schemes' loops write counter ids, which
:func:`substream_group` groups the same way afterwards.
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from repro import _cbuild
from repro._cbuild import ptr as _ptr
from repro.core.grouping import dense_ranks
from repro.core.interfaces import SubstreamGrouping

__all__ = [
    "available",
    "unavailable_reason",
    "bimode_pair",
    "gshare_detailed",
    "gshare_fused",
    "GSHARE_BLOCK",
    "bimode_fused",
    "counter_lane",
    "agree_lane",
    "tournament_lane",
    "gskew_lane",
    "trimode_lane",
    "yags_lane",
    "perceptron_lane",
    "biasfilter_lane",
    "substream_group",
    "pc_codes",
    "class_changes",
]

_C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>

/* The 2-bit saturating counter update every loop below shares: one
 * step toward taken (up) or not-taken, clamped to 0..3. */
static inline int8_t sat2(int8_t s, int up)
{
    return up ? (s < 3 ? s + 1 : 3) : (s > 0 ? s - 1 : 0);
}

/* Fused gshare family: every lane of a spec family advances in one
 * pass per block of B branches.  All gshare lanes observe the same
 * global history contents (only the masked width differs), so a single
 * 64-bit register serves every lane — each lane masks off its own
 * history and PC bits (paper maximum is 17 bits, far below 64, so the
 * unmasked shift-in never loses a bit a lane could see).  Tables for
 * all lanes live concatenated in one int8 arena at per-lane base
 * offsets; the reduction to per-lane misprediction counts happens
 * in-loop, so no per-branch prediction stream is ever materialized.
 *
 * The loop is lane-major within a block: the block's history values
 * are computed once into hb (hb[j] is the register before branch j
 * shifts in), then each lane runs the whole block against its own
 * table.  The lanes are independent, so the order changes no count,
 * and one lane's table stays in cache for B branches where a
 * branch-major loop would touch the whole arena (4.4 MB for the
 * 116-lane Figure-2 family) on every branch.  The history register
 * carries across blocks.  B is mirrored by GSHARE_BLOCK in Python. */
enum { B = 2048 };

void gshare_fused(const int64_t *pcs, const uint8_t *o, int64_t n,
                  int64_t num_lanes, const int64_t *imask,
                  const int64_t *hmask, const int64_t *base,
                  int8_t *tables, int64_t *miss)
{
    uint64_t hb[B];
    uint64_t h = 0;
    for (int64_t t0 = 0; t0 < n; t0 += B) {
        int64_t m = n - t0 < B ? n - t0 : B;
        const int64_t *bp = pcs + t0;
        const uint8_t *bo = o + t0;
        for (int64_t j = 0; j < m; j++) {
            hb[j] = h;
            h = (h << 1) | bo[j];
        }
        for (int64_t k = 0; k < num_lanes; k++) {
            int64_t im = imask[k];
            uint64_t hm = (uint64_t)hmask[k];
            int8_t *table = tables + base[k];
            int64_t lane_miss = 0;
            for (int64_t j = 0; j < m; j++) {
                uint8_t taken = bo[j];
                int8_t *cell = table + ((bp[j] & im) ^ (int64_t)(hb[j] & hm));
                int8_t s = *cell;
                lane_miss += (int64_t)((s >= 2) != taken);
                *cell = sat2(s, taken);
            }
            miss[k] += lane_miss;
        }
    }
}

/* Fused bi-mode family: the sequential choice/bank feedback loop of
 * bimode_pair, with every lane of the family advanced per branch.  The
 * direction index is gshare-style (PC xor masked history); the choice
 * index is PC-only when chmask is 0 and gshare-style otherwise, which
 * covers both choice_uses_history variants with one formula.  The
 * three tables of every lane share one int8 arena at per-lane base
 * offsets.  Update rules mirror BiModePredictor.update exactly:
 * partial update of the selected bank (both banks under full_update),
 * and the choice counter trains unless it chose wrongly while the
 * selected counter was nevertheless right. */
void bimode_fused(const int64_t *pcs, const uint8_t *o, int64_t n,
                  int64_t num_lanes, const int64_t *dmask,
                  const int64_t *dhmask, const int64_t *cmask,
                  const int64_t *chmask, const uint8_t *full_update,
                  const int64_t *nt_base, const int64_t *tk_base,
                  const int64_t *choice_base, int8_t *tables, int64_t *miss)
{
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        for (int64_t k = 0; k < num_lanes; k++) {
            int64_t d = (pc & dmask[k]) ^ (int64_t)(h & (uint64_t)dhmask[k]);
            int64_t c = (pc & cmask[k]) ^ (int64_t)(h & (uint64_t)chmask[k]);
            int8_t *choice = tables + choice_base[k];
            int8_t cs = choice[c];
            int ct = cs >= 2;
            int8_t *bank = tables + (ct ? tk_base[k] : nt_base[k]);
            int8_t ds = bank[d];
            uint8_t fin = ds >= 2;
            miss[k] += (int64_t)(fin != taken);
            bank[d] = sat2(ds, taken);
            if (full_update[k]) {
                int8_t *other = tables + (ct ? nt_base[k] : tk_base[k]);
                int8_t os = other[d];
                other[d] = sat2(os, taken);
            }
            if (!((ct != (int)taken) && (fin == taken)))
                choice[c] = sat2(cs, taken);
        }
        h = (h << 1) | taken;
    }
}

/* One pass of a single saturating-counter table with precomputed keys:
 * the shared automaton of the counter-major schemes whose keys need
 * numpy preparation (bimodal at any width, the two-level GAx/PAx
 * family, the bias filter's sub-predictor over its unfiltered
 * accesses).  Each access records the state it OBSERVES (before its
 * own delta); prediction semantics stay with the numpy caller, which is
 * what lets one loop serve schemes with different read interpretations.
 * Deltas are in {-1, 0, +1}; 0 reads without training. */
void counter_lane(const int64_t *keys, const int8_t *delta, int64_t n,
                  int8_t *table, int8_t max_state, int8_t *states)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t j = keys[t];
        int8_t s = table[j];
        states[t] = s;
        int8_t ns = (int8_t)(s + delta[t]);
        table[j] = ns < 0 ? 0 : (ns > max_state ? max_state : ns);
    }
}

/* The per-access comparator loops below share one shape: each reads
 * the raw (pcs, outcomes) trace, derives its table indices in-loop from
 * the PC and one running 64-bit history register (masked per access
 * exactly like GlobalHistoryRegister.value), counts its mispredictions
 * in-loop and returns that count.  `preds` (the per-branch final
 * predictions) and `cids` (each access's Section-4 counter id) are
 * nullable: a rate needs neither, so a family of lanes rates without
 * materializing any per-branch stream. */

/* One agree (configuration, trace) pair: the gshare-indexed agree PHT
 * and the first-outcome biasing bits of AgreePredictor in one pass.
 * bias[slot] is 2 until the slot's first occurrence updates it to that
 * occurrence's outcome; an unset slot predicts with bias not-taken.
 * The PHT counter predicts "agrees with the bias" and trains toward
 * whether the outcome agreed.  A cid is the PHT slot. */
int64_t agree_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                   int64_t imask, int64_t hmask, int64_t bmask,
                   int8_t *table, uint8_t *bias, uint8_t *preds,
                   int64_t *cids)
{
    int64_t miss = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t j = (pc & imask) ^ (int64_t)(h & (uint64_t)hmask);
        uint8_t *b = bias + (pc & bmask);
        int8_t s = table[j];
        uint8_t fin = (*b == 1) == (s >= 2);
        miss += fin != taken;
        if (preds) preds[t] = fin;
        if (cids) cids[t] = j;
        if (*b > 1) *b = taken;
        table[j] = sat2(s, *b == taken);
        h = (h << 1) | taken;
    }
    return miss;
}

/* One tournament (configuration, trace) pair: the registry pairing of
 * TournamentPredictor in one pass — a bimodal component (a) indexed
 * pc & imask, a gshare component (b) with as many history bits as index
 * bits, and the meta table indexed pc & mmask.  Meta state >= 2 selects
 * b; meta trains toward "b was right" only when the components
 * disagree.  A cid is the selected component's counter, b's offset by
 * the component size. */
int64_t tournament_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                        int64_t imask, int64_t mmask, int64_t size,
                        int8_t *a_table, int8_t *b_table, int8_t *meta,
                        uint8_t *preds, int64_t *cids)
{
    int64_t miss = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t ia = pc & imask;
        int64_t ib = ia ^ (int64_t)(h & (uint64_t)imask);
        int8_t *m = meta + (pc & mmask);
        int8_t sa = a_table[ia], sb = b_table[ib];
        int pa = sa >= 2, pb = sb >= 2;
        int sel = *m >= 2;
        uint8_t fin = (uint8_t)(sel ? pb : pa);
        miss += fin != taken;
        if (preds) preds[t] = fin;
        if (cids) cids[t] = sel ? size + ib : ia;
        if (pa != pb) *m = sat2(*m, pb == (int)taken);
        a_table[ia] = sat2(sa, taken);
        b_table[ib] = sat2(sb, taken);
        h = (h << 1) | taken;
    }
    return miss;
}

/* One gskew (configuration, trace) pair: three banks indexed by the
 * rotation-XOR skewing functions of GSkewPredictor._indices, majority
 * vote, and either the total or the enhanced (e-gskew) update policy.
 * The enhanced policy's partial update feeds bank state back into which
 * banks train, so the whole automaton runs here.  Every rotated value
 * is already masked to the bank width, and the rotation amounts are
 * reduced modulo it once, before the loop (a 0-bit bank indexes slot 0
 * whatever the amounts).  A cid is the first (lowest-numbered) bank
 * voting with the majority, bank k offset by k * bank_size. */
static inline int64_t rot(int64_t v, int64_t amount, int64_t bits, int64_t m)
{
    return ((v << amount) | (v >> (bits - amount))) & m;
}

int64_t gskew_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                   int64_t bank_bits, int64_t hmask, int enhanced,
                   int8_t *b0, int8_t *b1, int8_t *b2, uint8_t *preds,
                   int64_t *cids)
{
    int64_t m = bank_bits ? (((int64_t)1 << bank_bits) - 1) : 0;
    int64_t bank_size = (int64_t)1 << bank_bits;
    int64_t bits = bank_bits ? bank_bits : 1;
    int64_t pc1 = 1 % bits, pc2 = 2 % bits;
    int64_t h1 = (bank_bits / 2) % bits, h2 = ((2 * bank_bits) / 3) % bits;
    int64_t miss = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t pc_lo = pc & m;
        int64_t pc_hi = (pc >> bank_bits) & m;
        int64_t hist = (int64_t)(h & (uint64_t)hmask) & m;
        int64_t i0 = pc_lo ^ hist;
        int64_t i1 = rot(pc_lo, pc1, bits, m) ^ rot(hist, h1, bits, m) ^ pc_hi;
        int64_t i2 = rot(pc_lo, pc2, bits, m) ^ rot(hist, h2, bits, m)
                     ^ rot(pc_hi, pc1, bits, m);
        int8_t s0 = b0[i0], s1 = b1[i1], s2 = b2[i2];
        int v0 = s0 >= 2, v1 = s1 >= 2, v2 = s2 >= 2;
        int maj = (v0 + v1 + v2) >= 2;
        miss += maj != (int)taken;
        if (preds) preds[t] = (uint8_t)maj;
        if (cids)
            cids[t] = (v0 == maj) ? i0
                      : ((v1 == maj) ? bank_size + i1 : 2 * bank_size + i2);
        int all = !enhanced || maj != (int)taken;
        if (all || v0 == maj) b0[i0] = sat2(s0, taken);
        if (all || v1 == maj) b1[i1] = sat2(s1, taken);
        if (all || v2 == maj) b2[i2] = sat2(s2, taken);
        h = (h << 1) | taken;
    }
    return miss;
}

/* One tri-mode (configuration, trace) pair: bi-mode's bank feedback
 * with a third (weak) bank, TriModePredictor.update exactly.  The
 * direction index is gshare-style, the choice index PC-only; choice
 * state 3 selects the taken bank, 0 the not-taken bank, 1-2 the weak
 * bank, and the choice trains unless its direction was wrong while the
 * selected counter was right.  A cid is the selected direction counter,
 * bank b (not-taken, taken, weak) offset by b * bank_size. */
int64_t trimode_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                     int64_t dmask, int64_t dhmask, int64_t cmask,
                     int64_t bank_size, int8_t *nt_bank, int8_t *tk_bank,
                     int8_t *wk_bank, int8_t *choice, uint8_t *preds,
                     int64_t *cids)
{
    int64_t miss = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t d = (pc & dmask) ^ (int64_t)(h & (uint64_t)dhmask);
        int8_t *c = choice + (pc & cmask);
        int8_t cs = *c;
        int bank_id = (cs == 3) ? 1 : ((cs == 0) ? 0 : 2);
        int8_t *bank = bank_id == 1 ? tk_bank : (bank_id == 0 ? nt_bank : wk_bank);
        int8_t ds = bank[d];
        uint8_t fin = ds >= 2;
        miss += fin != taken;
        if (preds) preds[t] = fin;
        if (cids) cids[t] = bank_id * bank_size + d;
        bank[d] = sat2(ds, taken);
        if (!(((cs >= 2) != (int)taken) && (fin == taken)))
            *c = sat2(cs, taken);
        h = (h << 1) | taken;
    }
    return miss;
}

/* One YAGS (configuration, trace) pair: bimodal choice bias plus two
 * tagged exception caches, YagsPredictor.update exactly.  The choice
 * index is PC-only, the cache index gshare-style, the partial tag
 * (pc >> tag_shift) & tag_mask (at most 30 bits, so never the -1 of an
 * empty entry).  Probe the cache OPPOSITE the bias, train/allocate it
 * when the outcome deviates from the bias or the entry already hit,
 * and skip the choice update when the bias was wrong yet the override
 * got it right.  Cid layout: choice table, taken cache, not-taken
 * cache; a hit charges the hitting cache entry, a miss the choice
 * counter that supplied the bias. */
int64_t yags_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                  int64_t cmask, int64_t kmask, int64_t khmask,
                  int64_t tag_shift, int64_t tag_mask, int64_t choice_size,
                  int64_t cache_size, int8_t *choice, int32_t *tk_tags,
                  int8_t *tk_ctr, int32_t *nt_tags, int8_t *nt_ctr,
                  uint8_t *preds, int64_t *cids)
{
    int64_t miss = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t c = pc & cmask;
        int64_t k = (pc & kmask) ^ (int64_t)(h & (uint64_t)khmask);
        int32_t tag = (int32_t)((pc >> tag_shift) & tag_mask);
        int8_t cs = choice[c];
        int bias = cs >= 2;
        int32_t *tags = bias ? nt_tags : tk_tags;
        int8_t *ctr = bias ? nt_ctr : tk_ctr;
        int hit = tags[k] == tag;
        int8_t hs = ctr[k];
        int fin = hit ? (hs >= 2) : bias;
        miss += fin != (int)taken;
        if (preds) preds[t] = (uint8_t)fin;
        if (cids) cids[t] = hit ? choice_size + (bias ? cache_size : 0) + k : c;
        if ((int)taken != bias || hit) {
            if (!hit) {
                tags[k] = tag;
                ctr[k] = taken ? 2 : 1;
            } else {
                ctr[k] = sat2(hs, taken);
            }
        }
        if (!((bias != (int)taken) && (fin == (int)taken)))
            choice[c] = sat2(cs, taken);
        h = (h << 1) | taken;
    }
    return miss;
}

/* One perceptron (configuration, trace) pair: one signed int32 weight
 * row per PC hash, dot product against the running history register,
 * threshold-gated training — PerceptronPredictor.update exactly.  The
 * dot product accumulates in int64 (worst case |y| <= 63 * 2^29,
 * beyond int32); weights saturate to [w_min, w_max] per update.  Only
 * the low `hist_bits` bits of the history register are ever read, so
 * the unmasked shift-in matches the scalar GlobalHistoryRegister
 * bit-for-bit. */
int64_t perceptron_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                        int64_t pc_mask, int64_t hist_bits, int64_t theta,
                        int64_t w_min, int64_t w_max,
                        int32_t *weights, uint8_t *preds)
{
    int64_t stride = hist_bits + 1;
    int64_t miss = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        uint8_t taken = o[t];
        int32_t *row = weights + (pcs[t] & pc_mask) * stride;
        int64_t y = row[0];
        for (int64_t j = 1; j <= hist_bits; j++) {
            if ((h >> (j - 1)) & 1)
                y += row[j];
            else
                y -= row[j];
        }
        uint8_t pred = y >= 0;
        miss += pred != taken;
        if (preds) preds[t] = pred;
        int64_t mag = y >= 0 ? y : -y;
        if (pred != taken || mag <= theta) {
            int64_t d = taken ? 1 : -1;
            int64_t v = row[0] + d;
            row[0] = (int32_t)(v > w_max ? w_max : (v < w_min ? w_min : v));
            for (int64_t j = 1; j <= hist_bits; j++) {
                v = row[j] + (((h >> (j - 1)) & 1) ? d : -d);
                row[j] = (int32_t)(v > w_max ? w_max : (v < w_min ? w_min : v));
            }
        }
        h = (h << 1) | taken;
    }
    return miss;
}

/* One bias-filter (configuration, trace) pair: the per-address
 * run-counter filter automaton of BiasFilterPredictor in front of an
 * inlined 2-bit-counter sub-predictor (gshare when sub_hmask != 0,
 * bimodal when it is 0 — the same index formula covers both).  A
 * filtered access is answered by the filter's direction bit and hidden
 * from the sub-predictor ENTIRELY: its table does not train and its
 * history register is not pushed, matching the scalar design note.
 * A cid is the filter slot of a filtered access, else the
 * sub-predictor's counter offset by the filter size (fmask + 1).
 * biasfilter_lane instantiates this body twice, once with NULL outputs:
 * with per-access `if (preds)` tests the loop runs out of registers,
 * and its rate-only pass measured ~15% slower than the stores it
 * skips. */
static inline __attribute__((always_inline)) int64_t
biasfilter_run(const int64_t *pcs, const uint8_t *o, int64_t n,
               int64_t fmask, int64_t max_run,
               int64_t sub_imask, int64_t sub_hmask,
               uint8_t *dirs, int8_t *runs, int8_t *sub_table,
               uint8_t *preds, int64_t *cids)
{
    int64_t miss = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pc = pcs[t];
        uint8_t taken = o[t];
        int64_t slot = pc & fmask;
        int8_t run = runs[slot];
        uint8_t fin;
        if (run >= max_run) {
            fin = dirs[slot];
            if (cids) cids[t] = slot;
        } else {
            int64_t idx = (pc & sub_imask) ^ (int64_t)(h & (uint64_t)sub_hmask);
            int8_t s = sub_table[idx];
            fin = s >= 2;
            if (cids) cids[t] = fmask + 1 + idx;
            sub_table[idx] = sat2(s, taken);
            h = (h << 1) | taken;
        }
        miss += fin != taken;
        if (preds) preds[t] = fin;
        if (run == 0 || dirs[slot] != taken) {
            dirs[slot] = taken;
            runs[slot] = 1;
        } else if (run < max_run) {
            runs[slot] = (int8_t)(run + 1);
        }
    }
    return miss;
}

int64_t biasfilter_lane(const int64_t *pcs, const uint8_t *o, int64_t n,
                        int64_t fmask, int64_t max_run,
                        int64_t sub_imask, int64_t sub_hmask,
                        uint8_t *dirs, int8_t *runs, int8_t *sub_table,
                        uint8_t *preds, int64_t *cids)
{
    if (!preds && !cids)
        return biasfilter_run(pcs, o, n, fmask, max_run, sub_imask, sub_hmask,
                              dirs, runs, sub_table, 0, 0);
    return biasfilter_run(pcs, o, n, fmask, max_run, sub_imask, sub_hmask,
                          dirs, runs, sub_table, preds, cids);
}

/* First-seen hash table shared by the Section-4 grouping passes: an
 * open-addressed, linearly probed table of `cap` slots (a power of two)
 * holding ids, -1 marking an empty slot, so any 64-bit key is legal.
 * keys[id * stride] is the key of id, so a key can lead a per-id
 * record; ids count up from 0 in first-seen order.  The slots are
 * private to the pass (fs_free releases them).  When the load reaches
 * 1/2 the table doubles and the existing keys are reinserted — ids
 * never change, so ids already handed out stay valid. */
typedef struct {
    int32_t *slot;
    uint64_t *keys;
    int64_t stride, cap, count;
    int shift;
} fs_table;

static inline int64_t fs_home(const fs_table *h, uint64_t key)
{
    return (int64_t)((key * 0x9E3779B97F4A7C15ULL) >> h->shift);
}

/* (Re)allocate `cap` empty slots and insert ids [0, count); -1 when
 * out of memory.  Runs O(log n) times per pass, so it stays out of line
 * rather than being inlined into every loop that emits ids. */
static __attribute__((noinline)) int fs_rebuild(fs_table *h, int64_t cap, int shift)
{
    free(h->slot);
    h->slot = malloc(cap * sizeof(int32_t));
    if (!h->slot) return -1;
    h->cap = cap;
    h->shift = shift;
    for (int64_t i = 0; i < cap; i++) h->slot[i] = -1;
    for (int64_t id = 0; id < h->count; id++) {
        int64_t i = fs_home(h, h->keys[id * h->stride]);
        while (h->slot[i] >= 0) i = (i + 1) & (cap - 1);
        h->slot[i] = (int32_t)id;
    }
    return 0;
}

static int fs_init(fs_table *h, uint64_t *keys, int64_t stride)
{
    h->slot = 0;
    h->keys = keys;
    h->stride = stride;
    h->count = 0;
    return fs_rebuild(h, 16, 60);
}

static void fs_free(fs_table *h)
{
    free(h->slot);
    h->slot = 0;
}

/* Id of `key`, inserting it as the next id if unseen; -1 when out of
 * memory. */
static inline int64_t fs_id(fs_table *h, uint64_t key)
{
    int64_t i = fs_home(h, key);
    for (;;) {
        int32_t id = h->slot[i];
        if (id < 0) break;
        if (h->keys[id * h->stride] == key) return id;
        i = (i + 1) & (h->cap - 1);
    }
    int64_t id = h->count++;
    h->keys[id * h->stride] = key;
    h->slot[i] = (int32_t)id;
    if (2 * h->count >= h->cap && fs_rebuild(h, 2 * h->cap, h->shift - 1) < 0)
        return -1;
    return id;
}

/* One substream: its (counter, pc) key, then its counts. */
typedef struct {
    uint64_t key;
    int64_t total, taken, miss;
} stream_rec;

/* The Section-4 substream grouping of one sequential pass, shared by
 * every loop that emits it: each access's (counter, pc) key
 * `counter * P + pc[t]` is looked up in a first-seen hash table, the
 * stream's total/taken/mispredicted counts accumulate in its 32-byte
 * record (key and counts together, so an access touches one table slot
 * and one record) and the stream id goes to ids[t].  The caller sorts
 * the few distinct keys and renumbers the ids in ascending (counter,
 * pc) order.  `rec` holds one record per possible stream. */
typedef struct {
    fs_table h;
    stream_rec *rec;
    int32_t *ids;
    const int32_t *pc;
    uint32_t P;
} stream_group;

static int sg_init(stream_group *g, const int32_t *pc, int32_t P,
                   int32_t *ids, stream_rec *rec)
{
    g->rec = rec;
    g->ids = ids;
    g->pc = pc;
    g->P = (uint32_t)P;
    return fs_init(&g->h, &rec->key, 4);
}

/* Count access t, which read `counter`, into its substream: 0, -1 for
 * a pc code outside [0, P), -2 when out of memory. */
static inline int sg_emit(stream_group *g, int64_t t, uint64_t counter,
                          int taken, int miss)
{
    uint32_t p = (uint32_t)g->pc[t];
    if (p >= g->P) return -1;
    int64_t before = g->h.count;
    int64_t s = fs_id(&g->h, counter * g->P + p);
    if (s < 0) return -2;
    stream_rec *r = &g->rec[s];
    if (s == before) r->total = r->taken = r->miss = 0;
    r->total++;
    r->taken += taken;
    r->miss += miss;
    g->ids[t] = (int32_t)s;
    return 0;
}

/* Release the table: the number of streams, or the failing status. */
static int64_t sg_finish(stream_group *g, int status)
{
    fs_free(&g->h);
    return status < 0 ? status : g->h.count;
}

/* Substream grouping of a precomputed counter-id stream (the schemes
 * whose loops write counter ids).  Returns the number of streams, -1
 * for a counter or pc code out of range, -2 when out of memory. */
int64_t substream_group(const int64_t *cid, const uint8_t *taken,
                        const uint8_t *miss, int64_t n, int64_t C,
                        const int32_t *pc, int32_t P, int32_t *ids,
                        stream_rec *streams)
{
    stream_group g;
    if (sg_init(&g, pc, P, ids, streams) < 0) return -2;
    int status = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t c = cid[t];
        if ((uint64_t)c >= (uint64_t)C) {
            status = -1;
            break;
        }
        status = sg_emit(&g, t, (uint64_t)c, taken[t], miss[t]);
        if (status < 0) break;
    }
    return sg_finish(&g, status);
}

/* One gshare (configuration, trace) pair, Section-4 form.  The PHT
 * index is derived in-loop from the raw PC and one 64-bit history
 * register exactly as in gshare_fused, and the PHT advances like
 * GSharePredictor._run.  `preds` (nullable) receives the predictions;
 * every access is grouped into its (counter, pc) substream as it runs,
 * the PHT slot being the counter.  Returns the number of streams, -1
 * for a pc code out of range, -2 when out of memory. */
int64_t gshare_detailed(const int64_t *pcs, const uint8_t *o, int64_t n,
                        int64_t imask, int64_t hmask, int8_t *table,
                        uint8_t *preds, const int32_t *pc, int32_t P,
                        int32_t *ids, stream_rec *streams)
{
    stream_group g;
    if (sg_init(&g, pc, P, ids, streams) < 0) return -2;
    int status = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        uint8_t taken = o[t];
        int64_t j = (pcs[t] & imask) ^ (int64_t)(h & (uint64_t)hmask);
        int8_t s = table[j];
        uint8_t fin = s >= 2;
        if (preds) preds[t] = fin;
        status = sg_emit(&g, t, (uint64_t)j, taken, fin != taken);
        if (status < 0) break;
        table[j] = sat2(s, taken);
        h = (h << 1) | taken;
    }
    return sg_finish(&g, status);
}

/* One bi-mode (configuration, trace) pair, Section-4 form: the
 * choice/bank feedback loop of bimode_fused for a single lane, with
 * three separate tables.  The counter of an access is its selected
 * direction counter, taken-bank counters offset by bank_size (the
 * scalar simulate_detailed convention).  `preds`, `ids` and the return
 * value are as for gshare_detailed. */
int64_t bimode_pair(const int64_t *pcs, const uint8_t *o, int64_t n,
                    int64_t dmask, int64_t dhmask, int64_t cmask,
                    int64_t chmask, int full_update, int64_t bank_size,
                    int8_t *nt_bank, int8_t *tk_bank, int8_t *choice,
                    uint8_t *preds, const int32_t *pc, int32_t P,
                    int32_t *ids, stream_rec *streams)
{
    stream_group g;
    if (sg_init(&g, pc, P, ids, streams) < 0) return -2;
    int status = 0;
    uint64_t h = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t pcv = pcs[t];
        uint8_t taken = o[t];
        int64_t d = (pcv & dmask) ^ (int64_t)(h & (uint64_t)dhmask);
        int64_t c = (pcv & cmask) ^ (int64_t)(h & (uint64_t)chmask);
        int8_t cs = choice[c];
        int ct = cs >= 2;
        int8_t *bank = ct ? tk_bank : nt_bank;
        int8_t ds = bank[d];
        uint8_t fin = ds >= 2;
        if (preds) preds[t] = fin;
        status = sg_emit(&g, t, (uint64_t)(d + (ct ? bank_size : 0)),
                         taken, fin != taken);
        if (status < 0) break;
        bank[d] = sat2(ds, taken);
        if (full_update) {
            int8_t *other = ct ? nt_bank : tk_bank;
            int8_t os = other[d];
            other[d] = sat2(os, taken);
        }
        if (!((ct != (int)taken) && (fin == taken)))
            choice[c] = sat2(cs, taken);
        h = (h << 1) | taken;
    }
    return sg_finish(&g, status);
}

/* First-seen coding of a 64-bit PC stream: codes[t] is the id of
 * pcs[t] in first-seen order, keys[id] its PC.  The caller sorts the
 * few distinct PCs and renumbers the codes by rank.  `keys` holds up to
 * n entries.  Returns the number of distinct PCs, -2 when out of
 * memory. */
int64_t pc_first_seen(const uint64_t *pcs, int64_t n, int32_t *codes,
                      uint64_t *keys)
{
    fs_table h;
    if (fs_init(&h, keys, 1) < 0) return -2;
    int64_t status = 0;
    for (int64_t t = 0; t < n; t++) {
        int64_t id = fs_id(&h, pcs[t]);
        if (id < 0) {
            status = -2;
            break;
        }
        codes[t] = (int32_t)id;
    }
    fs_free(&h);
    return status < 0 ? status : h.count;
}

/* Table-4 interference counting in one pass over the stream ids:
 * an access's counter is the counter of its stream, and
 * `last_role[c]` remembers the dominance role of counter c's previous
 * access (-1 = none yet); a differing role counts one change against
 * the *earlier* access's role, matching the lexsort-based reference
 * formulation exactly.  Returns 0, or -1 for a stream id outside
 * [0, S) or a stream counter outside [0, C). */
int class_changes(const int32_t *ids, const int64_t *stream_counter,
                  const int8_t *stream_role, int64_t n, int64_t S,
                  int64_t C, int8_t *last_role, int64_t *counts)
{
    for (int64_t t = 0; t < n; t++) {
        int32_t s = ids[t];
        if ((uint64_t)(uint32_t)s >= (uint64_t)S) return -1;
        int64_t c = stream_counter[s];
        if ((uint64_t)c >= (uint64_t)C) return -1;
        int8_t r = stream_role[s];
        int8_t lr = last_role[c];
        /* branch-free: a first access (lr = -1) counts into slot 3 */
        counts[lr & 3] += lr != r;
        last_role[c] = r;
    }
    return 0;
}
"""

#: Trailing arguments of the loops that emit a substream grouping:
#: pc codes, their count, then the stream id per access and the stream
#: records out.
_GROUPING_ARGS = (ctypes.c_void_p, ctypes.c_int32, ctypes.c_void_p, ctypes.c_void_p)

#: Trailing arguments of the comparator loops that attribute accesses:
#: the predictions and the counter ids out, both nullable.
_LANE_OUT_ARGS = (ctypes.c_void_p, ctypes.c_void_p)

#: The per-access comparator loops; each returns its miss count.
_COMPARATOR_LOOPS = (
    "agree_lane",
    "tournament_lane",
    "gskew_lane",
    "trimode_lane",
    "yags_lane",
    "perceptron_lane",
    "biasfilter_lane",
)


def _bind(lib: ctypes.CDLL) -> None:
    """Declare every entry point's argument and return types."""
    lib.gshare_detailed.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # imask
        ctypes.c_int64,  # hmask
        ctypes.c_void_p,  # PHT
        ctypes.c_void_p,  # predictions out (nullable)
        *_GROUPING_ARGS,
    ]
    lib.gshare_detailed.restype = ctypes.c_int64
    lib.bimode_pair.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # dmask
        ctypes.c_int64,  # dhmask
        ctypes.c_int64,  # cmask
        ctypes.c_int64,  # chmask
        ctypes.c_int,  # full_update
        ctypes.c_int64,  # bank_size
        ctypes.c_void_p,  # not-taken bank
        ctypes.c_void_p,  # taken bank
        ctypes.c_void_p,  # choice table
        ctypes.c_void_p,  # predictions out (nullable)
        *_GROUPING_ARGS,
    ]
    lib.bimode_pair.restype = ctypes.c_int64
    lib.gshare_fused.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # num_lanes
        ctypes.c_void_p,  # imask
        ctypes.c_void_p,  # hmask
        ctypes.c_void_p,  # base
        ctypes.c_void_p,  # tables arena
        ctypes.c_void_p,  # miss out
    ]
    lib.gshare_fused.restype = None
    lib.bimode_fused.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # num_lanes
        ctypes.c_void_p,  # dmask
        ctypes.c_void_p,  # dhmask
        ctypes.c_void_p,  # cmask
        ctypes.c_void_p,  # chmask
        ctypes.c_void_p,  # full_update
        ctypes.c_void_p,  # nt_base
        ctypes.c_void_p,  # tk_base
        ctypes.c_void_p,  # choice_base
        ctypes.c_void_p,  # tables arena
        ctypes.c_void_p,  # miss out
    ]
    lib.bimode_fused.restype = None
    lib.counter_lane.argtypes = [
        ctypes.c_void_p,  # keys
        ctypes.c_void_p,  # deltas
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # table
        ctypes.c_int8,  # max_state
        ctypes.c_void_p,  # observed states out
    ]
    lib.counter_lane.restype = None
    lib.agree_lane.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # imask
        ctypes.c_int64,  # hmask
        ctypes.c_int64,  # bmask
        ctypes.c_void_p,  # agree PHT
        ctypes.c_void_p,  # biasing bits
        *_LANE_OUT_ARGS,
    ]
    lib.tournament_lane.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # imask
        ctypes.c_int64,  # mmask
        ctypes.c_int64,  # component size
        ctypes.c_void_p,  # bimodal table
        ctypes.c_void_p,  # gshare table
        ctypes.c_void_p,  # meta table
        *_LANE_OUT_ARGS,
    ]
    lib.gskew_lane.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # bank_bits
        ctypes.c_int64,  # hmask
        ctypes.c_int,  # enhanced
        ctypes.c_void_p,  # bank 0
        ctypes.c_void_p,  # bank 1
        ctypes.c_void_p,  # bank 2
        *_LANE_OUT_ARGS,
    ]
    lib.trimode_lane.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # dmask
        ctypes.c_int64,  # dhmask
        ctypes.c_int64,  # cmask
        ctypes.c_int64,  # bank_size
        ctypes.c_void_p,  # not-taken bank
        ctypes.c_void_p,  # taken bank
        ctypes.c_void_p,  # weak bank
        ctypes.c_void_p,  # choice table
        *_LANE_OUT_ARGS,
    ]
    lib.yags_lane.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # cmask
        ctypes.c_int64,  # kmask
        ctypes.c_int64,  # khmask
        ctypes.c_int64,  # tag_shift
        ctypes.c_int64,  # tag_mask
        ctypes.c_int64,  # choice_size
        ctypes.c_int64,  # cache_size
        ctypes.c_void_p,  # choice table
        ctypes.c_void_p,  # taken-cache tags
        ctypes.c_void_p,  # taken-cache counters
        ctypes.c_void_p,  # not-taken-cache tags
        ctypes.c_void_p,  # not-taken-cache counters
        *_LANE_OUT_ARGS,
    ]
    lib.perceptron_lane.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # pc_mask
        ctypes.c_int64,  # hist_bits
        ctypes.c_int64,  # theta
        ctypes.c_int64,  # w_min
        ctypes.c_int64,  # w_max
        ctypes.c_void_p,  # weight arena
        ctypes.c_void_p,  # predictions out (nullable)
    ]
    lib.biasfilter_lane.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_void_p,  # outcomes
        ctypes.c_int64,  # n
        ctypes.c_int64,  # fmask
        ctypes.c_int64,  # max_run
        ctypes.c_int64,  # sub_imask
        ctypes.c_int64,  # sub_hmask
        ctypes.c_void_p,  # filter direction bits
        ctypes.c_void_p,  # filter run counters
        ctypes.c_void_p,  # sub-predictor counter table
        *_LANE_OUT_ARGS,
    ]
    for name in _COMPARATOR_LOOPS:
        getattr(lib, name).restype = ctypes.c_int64  # the miss count
    lib.substream_group.argtypes = [
        ctypes.c_void_p,  # counter ids
        ctypes.c_void_p,  # outcomes
        ctypes.c_void_p,  # mispredicted
        ctypes.c_int64,  # n
        ctypes.c_int64,  # num_counters
        *_GROUPING_ARGS,
    ]
    lib.substream_group.restype = ctypes.c_int64
    lib.pc_first_seen.argtypes = [
        ctypes.c_void_p,  # pcs
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # first-seen pc id per access out
        ctypes.c_void_p,  # distinct pcs out
    ]
    lib.pc_first_seen.restype = ctypes.c_int64
    lib.class_changes.argtypes = [
        ctypes.c_void_p,  # stream id per access
        ctypes.c_void_p,  # stream counters
        ctypes.c_void_p,  # stream roles
        ctypes.c_int64,  # n
        ctypes.c_int64,  # num_streams
        ctypes.c_int64,  # num_counters
        ctypes.c_void_p,  # last role per counter
        ctypes.c_void_p,  # change counts out
    ]
    lib.class_changes.restype = ctypes.c_int


_LIB = _cbuild.CLibrary("step", _C_SOURCE, _bind, siblings=("repro.workloads._cgen",))


available = _LIB.available
unavailable_reason = _LIB.unavailable_reason


def gshare_detailed(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    imask: int,
    hmask: int,
    table: np.ndarray,
    pc_codes,
    predictions: bool = True,
):
    """Run one gshare pair through the compiled Section-4 loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``table`` is the int8 PHT,
    updated in place, and ``imask``/``hmask`` the PC and history masks
    of its index.  Returns ``(predictions, grouping)``: the uint8
    per-branch predictions (``None`` unless ``predictions``) and the
    substream grouping over the trace's ``pc_codes`` (see
    :func:`substream_group`), each access's PHT slot being its counter.
    Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    _require(((table, np.int8),))
    _require_reach(table, 0, imask, hmask)
    preds = np.empty(n, dtype=np.uint8) if predictions else None
    group = _Grouping(pc_codes, n, len(table))
    status = lib.gshare_detailed(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(imask),
        ctypes.c_int64(hmask),
        _ptr(table),
        _ptr(preds) if predictions else None,
        *group.args(),
    )
    return preds, group.result(status, "pc code")


def bimode_pair(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    dmask: int,
    dhmask: int,
    cmask: int,
    chmask: int,
    full_update: bool,
    nt_bank: np.ndarray,
    tk_bank: np.ndarray,
    choice: np.ndarray,
    pc_codes,
    predictions: bool = True,
):
    """Run one bi-mode pair through the compiled Section-4 loop.

    ``pcs`` is int64, ``outcomes`` uint8; the three int8 tables are
    updated in place, the direction index being ``(pc & dmask) ^ (h &
    dhmask)`` into either bank and the choice index ``(pc & cmask) ^ (h
    & chmask)``.  Returns ``(predictions, grouping)`` as
    :func:`gshare_detailed` does, an access's counter being its selected
    direction counter with taken-bank counters offset by the bank size.
    Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    bank_size = len(nt_bank)
    _require(((nt_bank, np.int8), (tk_bank, np.int8)), bank_size)
    _require(((choice, np.int8),))
    _require_reach(nt_bank, 0, dmask, dhmask)
    _require_reach(choice, 0, cmask, chmask)
    preds = np.empty(n, dtype=np.uint8) if predictions else None
    group = _Grouping(pc_codes, n, 2 * bank_size)
    status = lib.bimode_pair(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(dmask),
        ctypes.c_int64(dhmask),
        ctypes.c_int64(cmask),
        ctypes.c_int64(chmask),
        ctypes.c_int(1 if full_update else 0),
        ctypes.c_int64(bank_size),
        _ptr(nt_bank),
        _ptr(tk_bank),
        _ptr(choice),
        _ptr(preds) if predictions else None,
        *group.args(),
    )
    return preds, group.result(status, "pc code")


#: Branches per block of :func:`gshare_fused`'s lane-major loop: the
#: C source's ``enum { B = ... }``, mirrored for the tests that build
#: traces straddling block edges.
GSHARE_BLOCK = 2048


def gshare_fused(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    imask: np.ndarray,
    hmask: np.ndarray,
    base: np.ndarray,
    tables: np.ndarray,
) -> np.ndarray:
    """Advance a whole gshare lane family, lane-major over blocks of
    :data:`GSHARE_BLOCK` branches.

    ``pcs`` is int64, ``outcomes`` uint8; ``imask``/``hmask``/``base``
    are int64 per-lane parameter vectors and ``tables`` the shared int8
    counter arena (updated in place).  Returns the int64 per-lane
    misprediction counts.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    num_lanes = len(imask)
    miss = np.zeros(num_lanes, dtype=np.int64)
    _require(((pcs, np.int64), (outcomes, np.uint8)), len(outcomes))
    _require(((imask, np.int64), (hmask, np.int64), (base, np.int64)), num_lanes)
    _require(((tables, np.int8),))
    _require_reach(tables, base, imask, hmask)
    lib.gshare_fused(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(len(outcomes)),
        ctypes.c_int64(num_lanes),
        _ptr(imask),
        _ptr(hmask),
        _ptr(base),
        _ptr(tables),
        _ptr(miss),
    )
    return miss


def bimode_fused(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    dmask: np.ndarray,
    dhmask: np.ndarray,
    cmask: np.ndarray,
    chmask: np.ndarray,
    full_update: np.ndarray,
    nt_base: np.ndarray,
    tk_base: np.ndarray,
    choice_base: np.ndarray,
    tables: np.ndarray,
) -> np.ndarray:
    """Advance a whole bi-mode lane family in one pass over the trace.

    ``pcs`` is int64, ``outcomes`` and ``full_update`` uint8; the mask
    and base arguments are int64 per-lane parameter vectors and
    ``tables`` the shared int8 arena holding every lane's three tables
    (updated in place).  Returns the int64 per-lane misprediction
    counts.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    num_lanes = len(dmask)
    miss = np.zeros(num_lanes, dtype=np.int64)
    _require(((pcs, np.int64), (outcomes, np.uint8)), len(outcomes))
    _require(
        (
            (dmask, np.int64),
            (dhmask, np.int64),
            (cmask, np.int64),
            (chmask, np.int64),
            (full_update, np.uint8),
            (nt_base, np.int64),
            (tk_base, np.int64),
            (choice_base, np.int64),
        ),
        num_lanes,
    )
    _require(((tables, np.int8),))
    _require_reach(tables, nt_base, dmask, dhmask)
    _require_reach(tables, tk_base, dmask, dhmask)
    _require_reach(tables, choice_base, cmask, chmask)
    lib.bimode_fused(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(len(outcomes)),
        ctypes.c_int64(num_lanes),
        _ptr(dmask),
        _ptr(dhmask),
        _ptr(cmask),
        _ptr(chmask),
        _ptr(full_update),
        _ptr(nt_base),
        _ptr(tk_base),
        _ptr(choice_base),
        _ptr(tables),
        _ptr(miss),
    )
    return miss


def counter_lane(
    keys: np.ndarray, deltas: np.ndarray, table: np.ndarray, max_state: int = 3
) -> np.ndarray:
    """Advance one saturating-counter table through the compiled loop.

    ``keys`` is the int64 counter-id stream, ``deltas`` the int8
    per-access movement in ``{-1, 0, +1}``; ``table`` is the int8
    counter table, updated in place.  Returns the int8 state each access
    *observed* (before its own delta) — prediction semantics belong to
    the caller.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(keys)
    states = np.empty(n, dtype=np.int8)
    _require(((keys, np.int64), (deltas, np.int8)), n)
    _require(((table, np.int8),))
    lib.counter_lane(
        _ptr(keys),
        _ptr(deltas),
        ctypes.c_int64(n),
        _ptr(table),
        ctypes.c_int8(max_state),
        _ptr(states),
    )
    return states


def _lane_outputs(n: int, preds: Optional[np.ndarray], cids: Optional[np.ndarray]):
    """Pointers to a comparator loop's nullable outputs: uint8
    predictions and int64 counter ids, each, when given, a C-contiguous
    array of ``n`` entries."""
    for arr, dtype in ((preds, np.uint8), (cids, np.int64)):
        if arr is not None:
            _require(((arr, dtype),), n)
    return tuple(None if arr is None else _ptr(arr) for arr in (preds, cids))


def agree_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    imask: int,
    hmask: int,
    bmask: int,
    table: np.ndarray,
    bias: np.ndarray,
    preds: Optional[np.ndarray] = None,
    cids: Optional[np.ndarray] = None,
) -> int:
    """Run one agree pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``table`` is the int8 agree
    PHT, indexed ``(pc & imask) ^ (h & hmask)``, and ``bias`` the uint8
    biasing-bit table (2 = not yet set), indexed ``pc & bmask``; both
    are updated in place.  Fills the optional ``preds`` (uint8) and
    ``cids`` (int64 PHT slots) of ``len(outcomes)`` entries and returns
    the misprediction count.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    _require(((table, np.int8),))
    _require(((bias, np.uint8),))
    _require_reach(table, 0, imask, hmask)
    _require_reach(bias, 0, bmask, 0)
    return lib.agree_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(imask),
        ctypes.c_int64(hmask),
        ctypes.c_int64(bmask),
        _ptr(table),
        _ptr(bias),
        *_lane_outputs(n, preds, cids),
    )


def tournament_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    imask: int,
    mmask: int,
    a_table: np.ndarray,
    b_table: np.ndarray,
    meta: np.ndarray,
    preds: Optional[np.ndarray] = None,
    cids: Optional[np.ndarray] = None,
) -> int:
    """Run one bimodal + gshare tournament pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; the three int8 tables are
    updated in place: the bimodal ``a_table`` indexed ``pc & imask``,
    the equal-size gshare ``b_table`` indexed ``(pc & imask) ^ (h &
    imask)`` and the ``meta`` table indexed ``pc & mmask``.  Fills the
    optional ``preds`` (uint8) and ``cids`` (int64: the selected
    component's counter, gshare ids offset by the component size) and
    returns the misprediction count.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    _require(((a_table, np.int8), (b_table, np.int8)), len(a_table))
    _require(((meta, np.int8),))
    _require_reach(a_table, 0, imask, imask)
    _require_reach(meta, 0, mmask, 0)
    return lib.tournament_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(imask),
        ctypes.c_int64(mmask),
        ctypes.c_int64(len(a_table)),
        _ptr(a_table),
        _ptr(b_table),
        _ptr(meta),
        *_lane_outputs(n, preds, cids),
    )


def gskew_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    bank_bits: int,
    hist_bits: int,
    enhanced: bool,
    banks: np.ndarray,
    preds: Optional[np.ndarray] = None,
    cids: Optional[np.ndarray] = None,
) -> int:
    """Run one gskew pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``banks`` is the int8
    ``(3, 1 << bank_bits)`` bank-state array, updated in place.  Fills
    the optional ``preds`` (uint8 majority predictions) and ``cids``
    (int64: the first majority-voting bank's counter, offset by its
    bank number) and returns the misprediction count.  Call only when
    :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    _require(((banks, np.int8),))
    if banks.shape != (3, 1 << bank_bits):
        raise ValueError(
            f"gskew banks must have shape (3, {1 << bank_bits}), got {banks.shape}"
        )
    if not 0 <= hist_bits < 64:  # the history mask must fit int64
        raise ValueError(f"hist_bits must be in [0, 63], got {hist_bits}")
    b0, b1, b2 = banks[0], banks[1], banks[2]
    return lib.gskew_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(bank_bits),
        ctypes.c_int64((1 << hist_bits) - 1),
        ctypes.c_int(1 if enhanced else 0),
        _ptr(b0),
        _ptr(b1),
        _ptr(b2),
        *_lane_outputs(n, preds, cids),
    )


def trimode_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    dmask: int,
    dhmask: int,
    cmask: int,
    nt_bank: np.ndarray,
    tk_bank: np.ndarray,
    wk_bank: np.ndarray,
    choice: np.ndarray,
    preds: Optional[np.ndarray] = None,
    cids: Optional[np.ndarray] = None,
) -> int:
    """Run one tri-mode pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; the three equal-size int8
    banks are indexed ``(pc & dmask) ^ (h & dhmask)`` and the int8
    ``choice`` table ``pc & cmask``, all updated in place.  Fills the
    optional ``preds`` (uint8) and ``cids`` (int64: the selected
    direction counter, bank b offset by ``b * bank_size``) and returns
    the misprediction count.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    _require(((nt_bank, np.int8), (tk_bank, np.int8), (wk_bank, np.int8)), len(nt_bank))
    _require(((choice, np.int8),))
    _require_reach(nt_bank, 0, dmask, dhmask)
    _require_reach(choice, 0, cmask, 0)
    return lib.trimode_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(dmask),
        ctypes.c_int64(dhmask),
        ctypes.c_int64(cmask),
        ctypes.c_int64(len(nt_bank)),
        _ptr(nt_bank),
        _ptr(tk_bank),
        _ptr(wk_bank),
        _ptr(choice),
        *_lane_outputs(n, preds, cids),
    )


#: YAGS partial tags are int32 and -1 marks an empty cache entry, so a
#: tag holds at most this many bits.
_MAX_TAG_BITS = 30


def yags_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    cmask: int,
    kmask: int,
    khmask: int,
    tag_shift: int,
    tag_mask: int,
    choice: np.ndarray,
    tk_tags: np.ndarray,
    tk_ctr: np.ndarray,
    nt_tags: np.ndarray,
    nt_ctr: np.ndarray,
    preds: Optional[np.ndarray] = None,
    cids: Optional[np.ndarray] = None,
) -> int:
    """Run one YAGS pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; the int8 ``choice`` table is
    indexed ``pc & cmask``, both (int32 tags, int8 counters) caches
    ``(pc & kmask) ^ (h & khmask)``, and an access's partial tag is
    ``(pc >> tag_shift) & tag_mask`` (at most 30 bits); all tables are
    updated in place.  Fills the optional ``preds`` (uint8) and ``cids``
    (int64: choice table, then taken cache, then not-taken cache) and
    returns the misprediction count.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    _require(((choice, np.int8),))
    _require(
        ((tk_tags, np.int32), (tk_ctr, np.int8), (nt_tags, np.int32), (nt_ctr, np.int8)),
        len(tk_ctr),
    )
    _require_reach(choice, 0, cmask, 0)
    _require_reach(tk_ctr, 0, kmask, khmask)
    if not 0 <= tag_mask < 1 << _MAX_TAG_BITS or not 0 <= tag_shift < 64:
        raise ValueError(
            f"YAGS tags must be at most {_MAX_TAG_BITS} bits below bit 64, "
            f"got mask {tag_mask:#x} at shift {tag_shift}"
        )
    return lib.yags_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64(cmask),
        ctypes.c_int64(kmask),
        ctypes.c_int64(khmask),
        ctypes.c_int64(tag_shift),
        ctypes.c_int64(tag_mask),
        ctypes.c_int64(len(choice)),
        ctypes.c_int64(len(tk_ctr)),
        _ptr(choice),
        _ptr(tk_tags),
        _ptr(tk_ctr),
        _ptr(nt_tags),
        _ptr(nt_ctr),
        *_lane_outputs(n, preds, cids),
    )


def perceptron_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    index_bits: int,
    hist_bits: int,
    theta: int,
    w_min: int,
    w_max: int,
    weights: np.ndarray,
    preds: Optional[np.ndarray] = None,
) -> int:
    """Run one perceptron pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``weights`` is the int32
    arena of ``(1 << index_bits) * (hist_bits + 1)`` weights laid out
    row-major ``[bias, w_1 .. w_hist]`` per perceptron, updated in
    place.  Fills the optional uint8 ``preds`` and returns the
    misprediction count.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    if not 0 <= hist_bits <= 64:
        raise ValueError(f"hist_bits must be in [0, 64], got {hist_bits}")
    _require(((weights, np.int32),), (1 << index_bits) * (hist_bits + 1))
    return lib.perceptron_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64((1 << index_bits) - 1),
        ctypes.c_int64(hist_bits),
        ctypes.c_int64(theta),
        ctypes.c_int64(w_min),
        ctypes.c_int64(w_max),
        _ptr(weights),
        _lane_outputs(n, preds, None)[0],
    )


def biasfilter_lane(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    filter_bits: int,
    max_run: int,
    sub_index_bits: int,
    sub_hist_bits: int,
    dirs: np.ndarray,
    runs: np.ndarray,
    sub_table: np.ndarray,
    preds: Optional[np.ndarray] = None,
    cids: Optional[np.ndarray] = None,
) -> int:
    """Run one bias-filter pair through the compiled loop.

    ``pcs`` is int64, ``outcomes`` uint8; ``dirs`` (uint8) and ``runs``
    (int8) are the filter state, ``sub_table`` the int8 2-bit-counter
    table of the sub-predictor (gshare when ``sub_hist_bits > 0``, else
    bimodal), all updated in place.  Fills the optional ``preds``
    (uint8) and ``cids`` (int64: the filter slot of a filtered access,
    else ``(1 << filter_bits)`` plus the sub-predictor's counter) and
    returns the misprediction count.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(outcomes)
    _require(((pcs, np.int64), (outcomes, np.uint8)), n)
    _require(((dirs, np.uint8), (runs, np.int8)), 1 << filter_bits)
    _require(((sub_table, np.int8),))
    sub_imask, sub_hmask = (1 << sub_index_bits) - 1, (1 << sub_hist_bits) - 1
    _require_reach(sub_table, 0, sub_imask, sub_hmask)
    return lib.biasfilter_lane(
        _ptr(pcs),
        _ptr(outcomes),
        ctypes.c_int64(n),
        ctypes.c_int64((1 << filter_bits) - 1),
        ctypes.c_int64(max_run),
        ctypes.c_int64(sub_imask),
        ctypes.c_int64(sub_hmask),
        _ptr(dirs),
        _ptr(runs),
        _ptr(sub_table),
        *_lane_outputs(n, preds, cids),
    )


def _require(arrays, n: Optional[int] = None) -> None:
    """Check the ``(array, dtype)`` pairs a C loop is about to read.

    Each array must have exactly its dtype and be C-contiguous, and,
    when ``n`` is given, hold ``n`` entries.  Raises ``ValueError`` —
    unlike ``assert``, the check survives ``python -O``.
    """
    for arr, dtype in arrays:
        if arr.dtype != dtype or not arr.flags["C_CONTIGUOUS"]:
            raise ValueError(
                f"expected a C-contiguous {np.dtype(dtype)} array, "
                f"got {arr.dtype} (contiguous={arr.flags['C_CONTIGUOUS']})"
            )
        if n is not None and len(arr) != n:
            raise ValueError(f"array lengths differ: {len(arr)} != {n}")


def _require_reach(tables: np.ndarray, base, mask, hmask) -> None:
    """Check that every lane indexing ``tables`` stays inside it.

    The C loops touch ``tables[base + ((pc & mask) ^ (h & hmask))]``
    unchecked; with non-negative masks that index lies in ``[base, base
    + (mask | hmask)]`` whatever the pc and history, so an O(lanes)
    check bounds every access.  ``base``/``mask``/``hmask`` are per-lane
    vectors (a fused family's arena) or scalars (one lane's table).
    """
    base, mask, hmask = (np.asarray(v, dtype=np.int64) for v in (base, mask, hmask))
    if (mask < 0).any() or (hmask < 0).any() or (base < 0).any():
        raise ValueError("lane masks and arena bases must be >= 0")
    if ((mask | hmask) >= len(tables) - base).any():
        raise ValueError(f"a lane reaches past its {len(tables)}-entry table arena")


#: Stream and pc ids are int32: a grouped pass holds fewer accesses.
_ID_LIMIT = int(np.iinfo(np.int32).max)


def _require_ids(n: int) -> None:
    """First-seen ids are int32: at most ``_ID_LIMIT - 1`` accesses."""
    if n >= _ID_LIMIT:
        raise ValueError(f"{n} accesses exceed the int32 id range")


#: One ``stream_rec`` of the C grouping passes.
_STREAM_RECORD = np.dtype(
    [("key", np.uint64), ("total", np.int64), ("taken", np.int64), ("miss", np.int64)]
)


class _Grouping:
    """The substream-grouping arguments of one C pass: the trace's
    ``pc_codes`` — the ``(unique_pcs, dense_codes)`` pair of
    ``pc_code_stream`` — and buffers for the stream ids and records."""

    def __init__(self, pc_codes, n: int, num_counters: int) -> None:
        self.pc_codes = pc_codes
        self.num_counters = num_counters
        unique_pcs, dense = pc_codes
        _require(((dense, np.int32),), n)
        self.num_pcs = len(unique_pcs)
        if self.num_pcs >= _ID_LIMIT:
            raise ValueError(f"{self.num_pcs} distinct pcs exceed the int32 id range")
        _require_ids(n)
        self.ids = np.empty(n, dtype=np.int32)
        # one record per possible (counter, pc) stream, at most one per
        # access; pages past the stream count are never touched
        capacity = min(n, num_counters * self.num_pcs)
        self.records = np.empty(max(1, capacity), dtype=_STREAM_RECORD)

    def args(self) -> tuple:
        return (
            _ptr(self.pc_codes[1]),
            ctypes.c_int32(self.num_pcs),
            _ptr(self.ids),
            _ptr(self.records),
        )

    def result(self, status: int, bad: str) -> SubstreamGrouping:
        """The grouping of a pass that returned ``status``; ``bad``
        names what a status of -1 found out of range."""
        if status == -1:
            raise ValueError(f"{bad} outside [0, {self.num_pcs})")
        if status < 0:  # pragma: no cover - malloc failure
            raise MemoryError("substream hash table")
        return SubstreamGrouping(
            self.ids, self.records[:status].copy(), self.pc_codes[0], self.num_counters
        )


def substream_group(
    counter_ids: np.ndarray,
    pc_codes,
    taken: np.ndarray,
    mispredicted: np.ndarray,
    num_counters: int,
) -> SubstreamGrouping:
    """Group precomputed accesses into (counter, pc) substreams in C.

    ``counter_ids`` is int64 and ``taken`` / ``mispredicted`` bool, all
    C-contiguous and of equal length; ``pc_codes`` is the trace's
    ``(unique_pcs, dense_codes)`` with int32 codes.  Returns the
    first-seen :class:`~repro.core.interfaces.SubstreamGrouping` — the
    one the gshare and bi-mode loops emit as they run.  A counter id
    outside ``[0, num_counters)`` or a pc code outside the distinct pcs
    raises ``ValueError``.  Call only when :func:`available`.
    """
    lib = _LIB.require()
    n = len(counter_ids)
    _require(((counter_ids, np.int64), (taken, np.bool_), (mispredicted, np.bool_)), n)
    group = _Grouping(pc_codes, n, num_counters)
    status = lib.substream_group(
        _ptr(counter_ids),
        _ptr(taken),
        _ptr(mispredicted),
        ctypes.c_int64(n),
        ctypes.c_int64(num_counters),
        *group.args(),
    )
    return group.result(status, f"counter id outside [0, {num_counters}) or pc code")


def pc_codes(pcs: np.ndarray):
    """``(unique_pcs, dense_codes)`` of a 64-bit PC stream through the C loop.

    ``pcs`` is a C-contiguous int64 or uint64 array.  One first-seen
    hash pass finds the distinct PCs; sorting them in ``pcs``'s own
    dtype and renumbering each access by its PC's rank gives exactly
    ``np.unique(pcs, return_inverse=True)``, with int32 codes.  Call
    only when :func:`available`.
    """
    lib = _LIB.require()
    if pcs.dtype not in (np.int64, np.uint64):
        raise ValueError(f"expected int64 or uint64 pcs, got {pcs.dtype}")
    _require(((pcs, pcs.dtype),))
    n = len(pcs)
    _require_ids(n)
    codes = np.empty(n, dtype=np.int32)
    # worst case every PC distinct; pages past the count are never touched
    keys = np.empty(n, dtype=pcs.dtype)
    num_pcs = lib.pc_first_seen(_ptr(pcs), ctypes.c_int64(n), _ptr(codes), _ptr(keys))
    if num_pcs < 0:  # pragma: no cover - malloc failure
        raise MemoryError("pc hash table")
    distinct = keys[: int(num_pcs)]
    order, rank = dense_ranks(distinct)
    # in place: take() buffers its output under the default mode="raise"
    np.take(rank, codes, out=codes)
    return distinct[order], codes


def class_changes(
    access_stream: np.ndarray,
    stream_counter: np.ndarray,
    stream_role: np.ndarray,
    num_counters: int,
) -> np.ndarray:
    """Count Table-4 role changes through the compiled single pass.

    ``access_stream`` holds each access's int32 stream id;
    ``stream_counter`` (int64) and ``stream_role`` (int8) are the
    per-stream counter and dominance role, all C-contiguous.  Returns
    the int64 ``[dominant, non_dominant, wb]`` change counts.  A stream
    id outside the stream tables or a stream counter outside
    ``[0, num_counters)`` raises ``ValueError``.  Call only when
    :func:`available`.
    """
    lib = _LIB.require()
    num_streams = len(stream_counter)
    _require(((access_stream, np.int32),))
    _require(((stream_counter, np.int64), (stream_role, np.int8)), num_streams)
    last_role = np.full(num_counters, -1, dtype=np.int8)
    counts = np.zeros(4, dtype=np.int64)  # slot 3 takes first accesses
    status = lib.class_changes(
        _ptr(access_stream),
        _ptr(stream_counter),
        _ptr(stream_role),
        ctypes.c_int64(len(access_stream)),
        ctypes.c_int64(num_streams),
        ctypes.c_int64(num_counters),
        _ptr(last_role),
        _ptr(counts),
    )
    if status != 0:
        raise ValueError(
            f"stream id outside [0, {num_streams}) or counter id outside "
            f"[0, {num_counters})"
        )
    return counts[:3]
