/* batchsim_kernel.c — compiled fast path for the batched braid simulator.
 *
 * Exact C port of the masked engine in repro/routing/simulator.py over
 * the batched group representation built by repro/routing/batchsim.py:
 * a dense master matrix of candidate rows in the dual row/column uint64
 * bitboard (row word r holds the columns occupied in lattice row r; word
 * height + c holds the rows occupied in lattice column c), plus a
 * 4-probe conflict table per row (two endpoint bits, the horizontal
 * segment against its row word, the vertical segment against its column
 * word).
 *
 * Two entry points, loaded via ctypes by repro/routing/kernel.py:
 *
 *   build_pair_plans — candidate-row generation for m endpoint pairs,
 *                      replicating BraidRouter._mask_plan's channel
 *                      enumeration and generation-order dedup; a pair's
 *                      kept count is -1 (an error: the caller raises)
 *                      when a coordinate lies on the padding frame.
 *   simulate_point   — one sweep point's full event loop, byte-identical
 *                      to simulate() (and therefore simulate_reference).
 *
 * Exactness notes mirrored from the Python engines:
 *   - attempts pop from a min-heap of gate indices (program order);
 *   - `locked == 0` shortcut takes candidate 0 without probing;
 *   - a blocked candidate contributes the lowest set bit of its overlap
 *     with the locked set, in padded row-major cell order; the 4-probe
 *     minimum reproduces that lowbit exactly because the probes cover
 *     every cell of the candidate and padded row-major order is the
 *     probe-local (word offset, bit) order;
 *   - stall accounting: first_stall_scan latches the retirement-step
 *     counter at first park, stall_events accrues scan - first at issue;
 *   - wakeups: one per parked gate whose blocker set intersects the
 *     cells freed during a retirement step (the per-event waiter-queue
 *     walk in simulate() wakes the same set — a woken gate's blocker is
 *     cleared, so later events in the step cannot wake it again, and
 *     the attempt heap restores program order);
 *   - max_cycles raises only when an event time exceeds the limit with
 *     gates still unfinished (simulate() checks at the top of the next
 *     loop iteration, which only runs while completed < n).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define ERR_OK 0
#define ERR_MAX_CYCLES 1
#define ERR_DEADLOCK 2
#define ERR_ALLOC 3

#define MAX_SPAN 128          /* both lattice dims capped at 64 words */
#define MAX_CANDIDATES 8      /* _mask_plan emits at most 4 + 4 rows */

/* ---- min-heap of gate indices (the attempt queue) ------------------ */

static void ipush(int64_t *heap, int64_t *size, int64_t value)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (heap[parent] <= value)
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static int64_t ipop(int64_t *heap, int64_t *size)
{
    int64_t top = heap[0];
    int64_t last = heap[--(*size)];
    int64_t n = *size;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && heap[child + 1] < heap[child])
            child++;
        if (heap[child] >= last)
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

/* ---- min-heap of (time, gate) events (active braids) --------------- */

typedef struct {
    int64_t t;
    int64_t g;
} event_t;

static int ev_lt(event_t a, event_t b)
{
    return a.t < b.t || (a.t == b.t && a.g < b.g);
}

static void epush(event_t *heap, int64_t *size, event_t value)
{
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!ev_lt(value, heap[parent]))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

static event_t epop(event_t *heap, int64_t *size)
{
    event_t top = heap[0];
    event_t last = heap[--(*size)];
    int64_t n = *size;
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ev_lt(heap[child + 1], heap[child]))
            child++;
        if (!ev_lt(heap[child], last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
    return top;
}

/* ---- candidate conflict probe -------------------------------------- */

/* Returns 1 when the candidate row is free; otherwise 0 with *watch_out
 * set to the lowest blocked cell in padded row-major order (r * 64 + c),
 * i.e. the lowbit of (candidate & locked) in the big-int engine. */
static int probe_row(const uint64_t *locked, const int64_t *poff,
                     const uint64_t *pmask, int64_t row, int64_t height,
                     int64_t *watch_out)
{
    const int64_t *off = poff + 4 * row;
    const uint64_t *pm = pmask + 4 * row;
    uint64_t hits[4];
    hits[0] = locked[off[0]] & pm[0];
    hits[1] = locked[off[1]] & pm[1];
    hits[2] = locked[off[2]] & pm[2];
    hits[3] = locked[off[3]] & pm[3];
    if (!(hits[0] | hits[1] | hits[2] | hits[3]))
        return 1;
    int64_t best = INT64_MAX;
    for (int i = 0; i < 4; i++) {
        if (!hits[i])
            continue;
        int64_t bit = __builtin_ctzll(hits[i]);
        int64_t cell = off[i] < height
            ? off[i] * 64 + bit               /* row word: bit is a column */
            : bit * 64 + (off[i] - height);   /* column word: bit is a row */
        if (cell < best)
            best = cell;
    }
    *watch_out = best;
    return 0;
}

/* ---- candidate-plan generation ------------------------------------- */

static uint64_t span_mask(int64_t lo, int64_t hi)
{
    int64_t width = hi - lo + 1;
    uint64_t bits = width >= 64 ? ~0ull : (1ull << width) - 1;
    return bits << lo;
}

static int64_t emit_candidate(
    int64_t sr, int64_t sc, int64_t tr, int64_t tc,
    int64_t hrow, int64_t h0, int64_t h1, int64_t vcol, int64_t v0, int64_t v1,
    int64_t height, int64_t span,
    uint64_t *rows_out, int64_t *poff_out, uint64_t *pmask_out, int64_t kept)
{
    uint64_t row[MAX_SPAN];
    memset(row, 0, (size_t)span * 8);
    int64_t ha = h0 <= h1 ? h0 : h1, hb = h0 <= h1 ? h1 : h0;
    int64_t va = v0 <= v1 ? v0 : v1, vb = v0 <= v1 ? v1 : v0;
    row[sr] |= 1ull << sc;
    row[height + sc] |= 1ull << sr;
    row[tr] |= 1ull << tc;
    row[height + tc] |= 1ull << tr;
    uint64_t hmask = span_mask(ha, hb);      /* bits are columns */
    uint64_t vmask = span_mask(va, vb);      /* bits are rows */
    row[hrow] |= hmask;
    for (int64_t c = ha; c <= hb; c++)
        row[height + c] |= 1ull << hrow;
    row[height + vcol] |= vmask;
    for (int64_t r = va; r <= vb; r++)
        row[r] |= 1ull << vcol;
    for (int64_t i = 0; i < kept; i++)
        if (!memcmp(rows_out + i * span, row, (size_t)span * 8))
            return kept;                     /* generation-order dedup */
    memcpy(rows_out + kept * span, row, (size_t)span * 8);
    int64_t *po = poff_out + kept * 4;
    uint64_t *pm = pmask_out + kept * 4;
    po[0] = sr;            pm[0] = 1ull << sc;
    po[1] = tr;            pm[1] = 1ull << tc;
    po[2] = hrow;          pm[2] = hmask;
    po[3] = height + vcol; pm[3] = vmask;
    return kept + 1;
}

/* Candidate rows for one endpoint pair: the same channel enumeration as
 * BraidRouter._mask_plan (row-first then column-first L shapes), with
 * duplicate rows dropped in generation order.  Buffers must hold
 * MAX_CANDIDATES rows; returns how many were kept, or -1 (an error) when
 * a channel coordinate would be negative or the span exceeds MAX_SPAN.
 * Qubit tiles sit at odd lattice cells, so real plans never hit -1. */
static int64_t build_pair_plan(
    int64_t sr, int64_t sc, int64_t tr, int64_t tc,
    int64_t max_row, int64_t max_col,
    int64_t height, int64_t width,
    uint64_t *rows_out, int64_t *poff_out, uint64_t *pmask_out)
{
    int64_t span = height + width;
    if (sr < 1 || sc < 1 || tr < 1 || tc < 1 || span > MAX_SPAN)
        return -1;
    int64_t kept = 0;
    int64_t row_opts[2] = { sr - 1, sr + 1 < max_row ? sr + 1 : max_row };
    int64_t col_opts[2] = { tc - 1, tc + 1 < max_col ? tc + 1 : max_col };
    for (int a = 0; a < 2; a++)
        for (int b = 0; b < 2; b++) {
            int64_t cr = row_opts[a], cc = col_opts[b];
            kept = emit_candidate(sr, sc, tr, tc,
                                  cr, sc, cc, cc, cr, tr,
                                  height, span,
                                  rows_out, poff_out, pmask_out, kept);
        }
    int64_t col_opts2[2] = { sc - 1, sc + 1 < max_col ? sc + 1 : max_col };
    int64_t row_opts2[2] = { tr - 1, tr + 1 < max_row ? tr + 1 : max_row };
    for (int a = 0; a < 2; a++)
        for (int b = 0; b < 2; b++) {
            int64_t cc = col_opts2[a], cr = row_opts2[b];
            kept = emit_candidate(sr, sc, tr, tc,
                                  cr, cc, tc, cc, sr, cr,
                                  height, span,
                                  rows_out, poff_out, pmask_out, kept);
        }
    return kept;
}

/* build_pair_plan over m pairs in one call (one ctypes round trip per
 * placement instead of one per pair).  pairs is m * 4 ints
 * (sr, sc, tr, tc); each pair writes its own MAX_CANDIDATES-row slot in
 * rows_out / poff_out / pmask_out and its kept count (or -1) into
 * kept_out. */
void build_pair_plans(
    const int64_t *pairs, int64_t m,
    int64_t max_row, int64_t max_col,
    int64_t height, int64_t width,
    uint64_t *rows_out, int64_t *poff_out, uint64_t *pmask_out,
    int64_t *kept_out)
{
    int64_t span = height + width;
    for (int64_t i = 0; i < m; i++) {
        const int64_t *p = pairs + i * 4;
        kept_out[i] = build_pair_plan(
            p[0], p[1], p[2], p[3],
            max_row, max_col, height, width,
            rows_out + (size_t)(i * MAX_CANDIDATES) * (size_t)span,
            poff_out + i * MAX_CANDIDATES * 4,
            pmask_out + (size_t)(i * MAX_CANDIDATES) * 4);
    }
}

/* ---- the event loop ------------------------------------------------ */

/* Counter slot layout shared with kernel.py. */
enum {
    C_ERR_DETAIL = 0,    /* parked count (deadlock) / limit (max_cycles) */
    C_STALL_EVENTS,
    C_BRAIDED,
    C_MAX_CONC,
    C_CELLS,
    C_DISTINCT,
    C_WAKEUPS,
    C_STALL_CYCLES,
    C_LATENCY,
    C_COUNT
};

int64_t simulate_point(
    int64_t n,
    const int64_t *kind,          /* 0 plain, 1 pair, 2 star */
    const int64_t *dur,
    const int64_t *block,         /* pair: first candidate row */
    const int64_t *count,         /* pair: candidates after truncation */
    int64_t max_legs,
    const int64_t *star_start,    /* n * max_legs: leg's first row */
    const int64_t *star_count,    /* n * max_legs: 0 marks no leg */
    const int64_t *star_ctrl,     /* star: control-cell row */
    const int64_t *succ_flat,
    const int64_t *succ_off,      /* n + 1 */
    const int64_t *pred_count,
    const uint64_t *M,            /* rows * span master matrix */
    const int64_t *poff,          /* rows * 4 probe word offsets */
    const uint64_t *pmask,        /* rows * 4 probe word masks */
    const int64_t *pops,          /* rows: popcount of the row part */
    int64_t span,
    int64_t height,
    int64_t max_cycles,
    int64_t *gate_start,          /* out, n */
    int64_t *gate_end,            /* out, n */
    int64_t *ready_time,          /* out, n */
    int64_t *counters)            /* out, C_COUNT */
{
    int64_t ml1 = max_legs + 1;
    int64_t err = ERR_OK;

    uint64_t *locked = calloc((size_t)span, 8);
    uint64_t *freed = calloc((size_t)span, 8);
    uint64_t *tmp = malloc((size_t)span * 8);
    uint64_t *blocker = calloc((size_t)n * height, 8);
    int64_t *remaining = malloc((size_t)n * 8);
    int64_t *first_stall = malloc((size_t)n * 8);
    int64_t *issued_rows = malloc((size_t)n * ml1 * 8);
    int64_t *issued_cnt = calloc((size_t)n, 8);
    int64_t *parked_list = malloc((size_t)n * 8);
    int64_t *attempt = malloc((size_t)(n + 1) * 8);
    event_t *active = malloc((size_t)(n + 1) * sizeof(event_t));

    if (!locked || !freed || !tmp || !blocker || !remaining || !first_stall
        || !issued_rows || !issued_cnt || !parked_list || !attempt || !active) {
        err = ERR_ALLOC;
        goto done;
    }

    for (int64_t i = 0; i < n; i++) {
        remaining[i] = pred_count[i];
        first_stall[i] = -1;
        gate_start[i] = -1;
        gate_end[i] = -1;
        ready_time[i] = 0;
    }
    memset(counters, 0, C_COUNT * 8);

    int64_t attempt_size = 0, active_size = 0;
    for (int64_t i = 0; i < n; i++)
        if (remaining[i] == 0)
            attempt[attempt_size++] = i;   /* ascending: already a heap */

    int64_t now = 0, scan = 0, completed = 0;
    int64_t conc = 0, max_conc = 0, parked = 0;
    int64_t stall_events = 0, distinct = 0, wakeups = 0;
    int64_t braids = 0, cells = 0;
    int64_t wc[MAX_CANDIDATES];

    for (;;) {
        /* -- attempt phase at `now`, in program order ---------------- */
        while (attempt_size) {
            int64_t g = ipop(attempt, &attempt_size);
            int64_t kg = kind[g];
            int64_t nw = 0;
            if (kg == 1) {                               /* simple pair */
                int64_t base = block[g], cnt = count[g], chosen = -1;
                if (conc == 0) {
                    chosen = base;
                } else {
                    for (int64_t c = 0; c < cnt; c++) {
                        int64_t cell;
                        if (probe_row(locked, poff, pmask, base + c,
                                      height, &cell)) {
                            chosen = base + c;
                            break;
                        }
                        wc[nw++] = cell;
                    }
                }
                if (chosen < 0)
                    goto park;
                const uint64_t *row = M + chosen * span;
                for (int64_t w = 0; w < span; w++)
                    locked[w] |= row[w];
                cells += pops[chosen];
                issued_rows[g * ml1] = chosen;
                issued_cnt[g] = 1;
            } else if (kg == 2) {                        /* CXX star */
                int64_t *rows = issued_rows + g * ml1;
                int64_t nr = 0;
                int routed = 1;
                for (int64_t leg = 0; leg < max_legs; leg++) {
                    int64_t cnt = star_count[g * max_legs + leg];
                    if (cnt == 0)
                        break;
                    int64_t base = star_start[g * max_legs + leg];
                    if (conc == 0) {
                        rows[nr++] = base;
                        continue;
                    }
                    int64_t chosen = -1;
                    nw = 0;
                    for (int64_t c = 0; c < cnt; c++) {
                        int64_t cell;
                        if (probe_row(locked, poff, pmask, base + c,
                                      height, &cell)) {
                            chosen = base + c;
                            break;
                        }
                        wc[nw++] = cell;
                    }
                    if (chosen < 0) {
                        routed = 0;      /* only the failing leg watches */
                        break;
                    }
                    rows[nr++] = chosen;
                }
                if (!routed)
                    goto park;
                rows[nr++] = star_ctrl[g];
                issued_cnt[g] = nr;
                memset(tmp, 0, (size_t)span * 8);
                for (int64_t i = 0; i < nr; i++) {
                    const uint64_t *row = M + rows[i] * span;
                    for (int64_t w = 0; w < span; w++)
                        tmp[w] |= row[w];
                }
                int64_t pc = 0;
                for (int64_t w = 0; w < span; w++) {
                    locked[w] |= tmp[w];
                    if (w < height)
                        pc += __builtin_popcountll(tmp[w]);
                }
                cells += pc;
            }
            if (kg != 0) {
                conc++;
                if (conc > max_conc)
                    max_conc = conc;
                braids++;
            }
            if (first_stall[g] >= 0)
                stall_events += scan - first_stall[g];
            gate_start[g] = now;
            gate_end[g] = now + dur[g];
            epush(active, &active_size, (event_t){ now + dur[g], g });
            continue;

        park:
            if (first_stall[g] < 0) {
                first_stall[g] = scan;
                distinct++;
            }
            {
                uint64_t *b = blocker + (size_t)g * height;
                for (int64_t i = 0; i < nw; i++) {
                    int64_t cell = wc[i];
                    b[cell >> 6] |= 1ull << (cell & 63);
                }
            }
            parked_list[parked++] = g;
        }

        /* -- idle check ---------------------------------------------- */
        if (active_size == 0) {
            if (parked) {
                counters[C_ERR_DETAIL] = parked;
                err = ERR_DEADLOCK;
            }
            break;
        }

        /* -- retire every event at the next time -------------------- */
        now = active[0].t;
        scan++;
        int freed_any = 0;
        while (active_size && active[0].t == now) {
            event_t ev = epop(active, &active_size);
            int64_t g = ev.g;
            if (kind[g] != 0) {
                const int64_t *rows = issued_rows + g * ml1;
                int64_t m = issued_cnt[g];
                for (int64_t i = 0; i < m; i++) {
                    const uint64_t *row = M + rows[i] * span;
                    for (int64_t w = 0; w < span; w++)
                        freed[w] |= row[w];
                }
                conc--;
                freed_any = 1;
            }
            completed++;
            for (int64_t si = succ_off[g]; si < succ_off[g + 1]; si++) {
                int64_t s = succ_flat[si];
                remaining[s]--;
                if (ready_time[s] < now)
                    ready_time[s] = now;
                if (remaining[s] == 0)
                    ipush(attempt, &attempt_size, s);
            }
        }
        if (completed >= n)
            break;
        if (now > max_cycles) {
            counters[C_ERR_DETAIL] = max_cycles;
            err = ERR_MAX_CYCLES;
            break;
        }
        if (freed_any) {
            for (int64_t w = 0; w < span; w++)
                locked[w] &= ~freed[w];
            for (int64_t i = 0; i < parked; ) {
                int64_t g = parked_list[i];
                const uint64_t *b = blocker + (size_t)g * height;
                uint64_t hit = 0;
                for (int64_t w = 0; w < height; w++) {
                    hit = b[w] & freed[w];
                    if (hit)
                        break;
                }
                if (hit) {
                    memset(blocker + (size_t)g * height, 0,
                           (size_t)height * 8);
                    parked_list[i] = parked_list[--parked];
                    wakeups++;
                    ipush(attempt, &attempt_size, g);
                } else {
                    i++;
                }
            }
            memset(freed, 0, (size_t)span * 8);
        }
    }

    if (err == ERR_OK) {
        int64_t latency = 0, stall_cycles = 0;
        for (int64_t i = 0; i < n; i++) {
            if (gate_end[i] > latency)
                latency = gate_end[i];
            if (gate_start[i] >= 0) {
                int64_t d = gate_start[i] - ready_time[i];
                if (d > 0)
                    stall_cycles += d;
            }
        }
        counters[C_STALL_EVENTS] = stall_events;
        counters[C_BRAIDED] = braids;
        counters[C_MAX_CONC] = max_conc;
        counters[C_CELLS] = cells;
        counters[C_DISTINCT] = distinct;
        counters[C_WAKEUPS] = wakeups;
        counters[C_STALL_CYCLES] = stall_cycles;
        counters[C_LATENCY] = latency;
    }

done:
    free(locked);
    free(freed);
    free(tmp);
    free(blocker);
    free(remaining);
    free(first_stall);
    free(issued_rows);
    free(issued_cnt);
    free(parked_list);
    free(attempt);
    free(active);
    return err;
}
