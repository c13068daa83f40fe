/* Compiled fast engine for the incremental mapping-cost tracker.
 *
 * Mirrors the scalar engine of repro/graphs/metrics.py (MappingCostTracker)
 * over flat arrays: segment endpoints seg[m*4] = (p_row, p_col, q_row, q_col),
 * midpoints mid[m*2], edge endpoint vertices eu/ev[m], per-edge full
 * midpoint-distance row sums R[m], and a dense clamped bucket grid
 * (cell_count / cell_items / per-edge clamped cell ranges edge_range[m*4] =
 * {row_lo, row_hi, col_lo, col_hi}).
 *
 * Bitwise discipline (the compiled and scalar engines must agree on every
 * bit of every float they produce):
 *
 *  - distances are sqrt(dr*dr + dc*dc) -- IEEE correctly-rounded ops only,
 *    never hypot() (library-dependent rounding);
 *  - every reduction over an m-length row is a binary tree fold over the
 *    row zero-padded to the power-of-two length `pad` (identical to the
 *    Python list halving);
 *  - the build ships with -ffp-contract=off so the compiler cannot fuse
 *    the multiply-adds above into FMAs the scalar engine does not perform.
 *
 * The crossing predicates replicate the arithmetic of _orientation /
 * _on_segment / _segments_cross exactly (same products, same 1e-12
 * tolerances), so crossing counts agree with the scalar engine on every
 * input.  The clamped dense grid may produce *larger* candidate sets than
 * the unbounded Python dict grid (out-of-range cells clamp onto the border),
 * but candidates are only pruning: the exact bbox + orientation tests keep
 * the counted pair set identical.
 *
 * int-params array ip = { m, pad, origin_row, origin_col, n_rows, n_cols,
 * cap }.  All functions are single-threaded over caller-owned buffers.
 */

#include <stdint.h>
#include <math.h>

#define TOL 1e-12

/* ------------------------------------------------------------------ */
/* Canonical float helpers                                             */
/* ------------------------------------------------------------------ */

static double dist2d(double ar, double ac, double br, double bc) {
    double dr = ar - br;
    double dc = ac - bc;
    return sqrt(dr * dr + dc * dc);
}

/* Binary tree fold of scratch[0..m) zero-padded to pad (a power of two). */
static double treefold(double *scratch, int64_t m, int64_t pad) {
    int64_t i, len, half;
    for (i = m; i < pad; i++) {
        scratch[i] = 0.0;
    }
    for (len = pad; len > 1; len = half) {
        half = len >> 1;
        for (i = 0; i < half; i++) {
            scratch[i] = scratch[2 * i] + scratch[2 * i + 1];
        }
    }
    return scratch[0];
}

/* ------------------------------------------------------------------ */
/* Crossing predicates (exact replicas of the Python arithmetic)       */
/* ------------------------------------------------------------------ */

static int orientation(double pr, double pc, double qr, double qc,
                       double rr, double rc) {
    double value = (qc - pc) * (rr - qr) - (qr - pr) * (rc - qc);
    if (fabs(value) < TOL) {
        return 0;
    }
    return value > 0 ? 1 : 2;
}

static int on_segment(double pr, double pc, double qr, double qc,
                      double rr, double rc) {
    double row_lo = pr < rr ? pr : rr;
    double row_hi = pr < rr ? rr : pr;
    double col_lo = pc < rc ? pc : rc;
    double col_hi = pc < rc ? rc : pc;
    return (row_lo - TOL <= qr && qr <= row_hi + TOL
            && col_lo - TOL <= qc && qc <= col_hi + TOL);
}

static int segments_cross(const double *a, const double *b) {
    int o1 = orientation(a[0], a[1], a[2], a[3], b[0], b[1]);
    int o2 = orientation(a[0], a[1], a[2], a[3], b[2], b[3]);
    int o3 = orientation(b[0], b[1], b[2], b[3], a[0], a[1]);
    int o4 = orientation(b[0], b[1], b[2], b[3], a[2], a[3]);
    if (o1 != o2 && o3 != o4) {
        return 1;
    }
    if (o1 == 0 && on_segment(a[0], a[1], b[0], b[1], a[2], a[3])) {
        return 1;
    }
    if (o2 == 0 && on_segment(a[0], a[1], b[2], b[3], a[2], a[3])) {
        return 1;
    }
    if (o3 == 0 && on_segment(b[0], b[1], a[0], a[1], b[2], b[3])) {
        return 1;
    }
    if (o4 == 0 && on_segment(b[0], b[1], a[2], a[3], b[2], b[3])) {
        return 1;
    }
    return 0;
}

/* Bounding-box rejection with the collinearity tolerance as margin. */
static int bbox_reject(const double *query_seg, const double *other_seg) {
    double row_lo = (query_seg[0] < query_seg[2] ? query_seg[0] : query_seg[2]) - TOL;
    double row_hi = (query_seg[0] < query_seg[2] ? query_seg[2] : query_seg[0]) + TOL;
    double col_lo = (query_seg[1] < query_seg[3] ? query_seg[1] : query_seg[3]) - TOL;
    double col_hi = (query_seg[1] < query_seg[3] ? query_seg[3] : query_seg[1]) + TOL;
    double o_row_lo = other_seg[0] < other_seg[2] ? other_seg[0] : other_seg[2];
    double o_row_hi = other_seg[0] < other_seg[2] ? other_seg[2] : other_seg[0];
    double o_col_lo = other_seg[1] < other_seg[3] ? other_seg[1] : other_seg[3];
    double o_col_hi = other_seg[1] < other_seg[3] ? other_seg[3] : other_seg[1];
    return (o_row_hi < row_lo || o_row_lo > row_hi
            || o_col_hi < col_lo || o_col_lo > col_hi);
}

/* ------------------------------------------------------------------ */
/* Dense clamped cell grid                                             */
/* ------------------------------------------------------------------ */

static int64_t clampi(int64_t value, int64_t lo, int64_t hi) {
    if (value < lo) {
        return lo;
    }
    if (value > hi) {
        return hi;
    }
    return value;
}

/* Clamped cell range of one segment; out = {row_lo, row_hi, col_lo, col_hi}. */
static void cell_range(const double *seg, double bucket, const int64_t *ip,
                       int64_t *out) {
    double row_min = seg[0] < seg[2] ? seg[0] : seg[2];
    double row_max = seg[0] < seg[2] ? seg[2] : seg[0];
    double col_min = seg[1] < seg[3] ? seg[1] : seg[3];
    double col_max = seg[1] < seg[3] ? seg[3] : seg[1];
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_rows = ip[4], n_cols = ip[5];
    out[0] = clampi((int64_t)floor(row_min / bucket), origin_row,
                    origin_row + n_rows - 1);
    out[1] = clampi((int64_t)floor(row_max / bucket), origin_row,
                    origin_row + n_rows - 1);
    out[2] = clampi((int64_t)floor(col_min / bucket), origin_col,
                    origin_col + n_cols - 1);
    out[3] = clampi((int64_t)floor(col_max / bucket), origin_col,
                    origin_col + n_cols - 1);
}

static int64_t grid_insert(int64_t edge, const int64_t *range,
                           const int64_t *ip, int64_t *cell_count,
                           int64_t *cell_items) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t row, col;
    for (row = range[0]; row <= range[1]; row++) {
        for (col = range[2]; col <= range[3]; col++) {
            int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
            if (cell_count[cell] >= cap) {
                return -1;
            }
            cell_items[cell * cap + cell_count[cell]] = edge;
            cell_count[cell] += 1;
        }
    }
    return 0;
}

static void grid_remove(int64_t edge, const int64_t *range,
                        const int64_t *ip, int64_t *cell_count,
                        int64_t *cell_items) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t row, col, slot;
    for (row = range[0]; row <= range[1]; row++) {
        for (col = range[2]; col <= range[3]; col++) {
            int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
            int64_t count = cell_count[cell];
            for (slot = 0; slot < count; slot++) {
                if (cell_items[cell * cap + slot] == edge) {
                    cell_items[cell * cap + slot] =
                        cell_items[cell * cap + count - 1];
                    cell_count[cell] = count - 1;
                    break;
                }
            }
        }
    }
}

/* Build the whole grid from seg; returns -1 when a cell overflows cap. */
int64_t mc_grid_build(const int64_t *ip, const double *seg, double bucket,
                      int64_t *cell_count, int64_t *cell_items,
                      int64_t *edge_range) {
    int64_t m = ip[0], n_cells = ip[4] * ip[5];
    int64_t i;
    for (i = 0; i < n_cells; i++) {
        cell_count[i] = 0;
    }
    for (i = 0; i < m; i++) {
        cell_range(seg + 4 * i, bucket, ip, edge_range + 4 * i);
        if (grid_insert(i, edge_range + 4 * i, ip, cell_count,
                        cell_items) != 0) {
            return -1;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Initialization                                                      */
/* ------------------------------------------------------------------ */

/* Fill R with per-edge full midpoint-distance row sums (tree-folded; the
 * self term is sqrt(0) = 0) and return the pairwise spacing sum, which is
 * exactly half the (tree-folded) total of R. */
double mc_spacing_init(const int64_t *ip, const double *mid, double *R,
                       double *scratch) {
    int64_t m = ip[0], pad = ip[1];
    int64_t i, j;
    for (i = 0; i < m; i++) {
        double row = mid[2 * i], col = mid[2 * i + 1];
        for (j = 0; j < m; j++) {
            scratch[j] = dist2d(row, col, mid[2 * j], mid[2 * j + 1]);
        }
        R[i] = treefold(scratch, m, pad);
    }
    for (i = 0; i < m; i++) {
        scratch[i] = R[i];
    }
    return treefold(scratch, m, pad) * 0.5;
}

/* Total crossing count over the built grid: each unordered pair is tested
 * once, when the higher-indexed edge queries (matching the Python
 * insert-after-query construction).  Also fills crossC[i] with the number
 * of crossings edge i participates in — the per-edge cache that lets move
 * evaluation skip re-scanning old segments. */
int64_t mc_count_crossings(const int64_t *ip, const double *seg,
                           const int64_t *eu, const int64_t *ev,
                           const int64_t *edge_range,
                           const int64_t *cell_count,
                           const int64_t *cell_items,
                           int64_t *stamp, int64_t *gen, int64_t *crossC) {
    int64_t m = ip[0];
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t crossings = 0;
    int64_t i, row, col, slot;
    for (i = 0; i < m; i++) {
        crossC[i] = 0;
    }
    for (i = 0; i < m; i++) {
        const int64_t *range = edge_range + 4 * i;
        int64_t g = ++(*gen);
        for (row = range[0]; row <= range[1]; row++) {
            for (col = range[2]; col <= range[3]; col++) {
                int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
                int64_t count = cell_count[cell];
                for (slot = 0; slot < count; slot++) {
                    int64_t other = cell_items[cell * cap + slot];
                    if (other >= i || stamp[other] == g) {
                        continue;
                    }
                    stamp[other] = g;
                    if (eu[i] == eu[other] || eu[i] == ev[other]
                        || ev[i] == eu[other] || ev[i] == ev[other]) {
                        continue;
                    }
                    if (bbox_reject(seg + 4 * i, seg + 4 * other)) {
                        continue;
                    }
                    if (segments_cross(seg + 4 * i, seg + 4 * other)) {
                        crossings += 1;
                        crossC[i] += 1;
                        crossC[other] += 1;
                    }
                }
            }
        }
    }
    return crossings;
}

/* ------------------------------------------------------------------ */
/* Move evaluation                                                     */
/* ------------------------------------------------------------------ */

/* Crossings of one query segment against the grid, skipping every changed
 * edge (cflag[edge] != 0; changed-vs-changed pairs are enumerated
 * separately).  When cross_adjust is non-NULL, every crossing partner has
 * cross_adjust[other] bumped by delta — the commit path uses this to keep
 * the per-edge crossing-count cache current. */
static int64_t cross_vs_grid(const double *query_seg, const int64_t *range,
                             int64_t self_u, int64_t self_v,
                             const int64_t *cflag,
                             const int64_t *ip, const double *seg,
                             const int64_t *eu, const int64_t *ev,
                             const int64_t *cell_count,
                             const int64_t *cell_items,
                             int64_t *stamp, int64_t *gen,
                             int64_t *cross_adjust, int64_t delta) {
    int64_t origin_row = ip[2], origin_col = ip[3];
    int64_t n_cols = ip[5], cap = ip[6];
    int64_t count_crossing = 0;
    int64_t g = ++(*gen);
    int64_t row, col, slot;
    double q_row_lo = (query_seg[0] < query_seg[2] ? query_seg[0]
                                                   : query_seg[2]) - TOL;
    double q_row_hi = (query_seg[0] < query_seg[2] ? query_seg[2]
                                                   : query_seg[0]) + TOL;
    double q_col_lo = (query_seg[1] < query_seg[3] ? query_seg[1]
                                                   : query_seg[3]) - TOL;
    double q_col_hi = (query_seg[1] < query_seg[3] ? query_seg[3]
                                                   : query_seg[1]) + TOL;
    for (row = range[0]; row <= range[1]; row++) {
        for (col = range[2]; col <= range[3]; col++) {
            int64_t cell = (row - origin_row) * n_cols + (col - origin_col);
            int64_t count = cell_count[cell];
            for (slot = 0; slot < count; slot++) {
                int64_t other = cell_items[cell * cap + slot];
                if (stamp[other] == g) {
                    continue;
                }
                stamp[other] = g;
                if (cflag[other]) {
                    continue;
                }
                if (self_u == eu[other] || self_u == ev[other]
                    || self_v == eu[other] || self_v == ev[other]) {
                    continue;
                }
                {
                    const double *o = seg + 4 * other;
                    double o_row_lo = o[0] < o[2] ? o[0] : o[2];
                    double o_row_hi = o[0] < o[2] ? o[2] : o[0];
                    double o_col_lo = o[1] < o[3] ? o[1] : o[3];
                    double o_col_hi = o[1] < o[3] ? o[3] : o[1];
                    if (o_row_hi < q_row_lo || o_row_lo > q_row_hi
                        || o_col_hi < q_col_lo || o_col_lo > q_col_hi) {
                        continue;
                    }
                }
                if (segments_cross(query_seg, seg + 4 * other)) {
                    count_crossing += 1;
                    if (cross_adjust) {
                        cross_adjust[other] += delta;
                    }
                }
            }
        }
    }
    return count_crossing;
}

/* Changed-vs-changed crossing block (no bbox pruning, like the Python
 * engines; the block is tiny). */
static int64_t cross_intra(const double *segs, const int64_t *changed,
                           int64_t k, const int64_t *eu, const int64_t *ev) {
    int64_t count_crossing = 0;
    int64_t t, u;
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        for (u = t + 1; u < k; u++) {
            int64_t j = changed[u];
            if (eu[i] == eu[j] || eu[i] == ev[j]
                || ev[i] == eu[j] || ev[i] == ev[j]) {
                continue;
            }
            if (segments_cross(segs + 4 * t, segs + 4 * u)) {
                count_crossing += 1;
            }
        }
    }
    return count_crossing;
}

/* Evaluate one move of k edges without mutating any state.
 *
 * Outputs: newrow_out[t] = tree-folded distance row from the new midpoint
 * of changed[t] to every unchanged midpoint (changed columns zeroed);
 * cross_out = {old crossings touching a changed edge, new crossings}.
 * The old count comes from the per-edge crossing cache crossC (maintained
 * by mc_commit): sum over changed edges counts changed-vs-changed pairs
 * twice, so one intra-block count is subtracted back out — exact integer
 * arithmetic, identical to re-scanning the old segments.  The caller
 * assembles the cost delta from these plus R (old rows) and the tiny
 * intra-changed midpoint terms, identically across engines. */
void mc_eval(const int64_t *ip, double bucket, int64_t k,
             const int64_t *changed, const double *newseg,
             const double *newmid, const double *seg, const double *mid,
             const int64_t *eu, const int64_t *ev,
             const int64_t *crossC, int64_t *cflag,
             const int64_t *cell_count,
             const int64_t *cell_items, int64_t *stamp, int64_t *gen,
             double *scratch, double *newrow_out, int64_t *cross_out) {
    int64_t m = ip[0], pad = ip[1];
    int64_t t, u, j;
    int64_t old_crossings = 0, new_crossings = 0;
    int64_t new_range[4];

    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 1;
        old_crossings += crossC[changed[t]];
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        cell_range(newseg + 4 * t, bucket, ip, new_range);
        new_crossings += cross_vs_grid(
            newseg + 4 * t, new_range, eu[i], ev[i], cflag,
            ip, seg, eu, ev, cell_count, cell_items, stamp, gen, 0, 0);
    }
    /* Old intra block reads the current segments of the changed edges. */
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        scratch[4 * t] = seg[4 * i];
        scratch[4 * t + 1] = seg[4 * i + 1];
        scratch[4 * t + 2] = seg[4 * i + 2];
        scratch[4 * t + 3] = seg[4 * i + 3];
    }
    old_crossings -= cross_intra(scratch, changed, k, eu, ev);
    new_crossings += cross_intra(newseg, changed, k, eu, ev);
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 0;
    }
    cross_out[0] = old_crossings;
    cross_out[1] = new_crossings;

    for (t = 0; t < k; t++) {
        double row = newmid[2 * t], col = newmid[2 * t + 1];
        for (j = 0; j < m; j++) {
            scratch[j] = dist2d(row, col, mid[2 * j], mid[2 * j + 1]);
        }
        for (u = 0; u < k; u++) {
            scratch[changed[u]] = 0.0;
        }
        newrow_out[t] = treefold(scratch, m, pad);
    }
}

/* ------------------------------------------------------------------ */
/* Committing a move                                                   */
/* ------------------------------------------------------------------ */

/* Fold an evaluated move into the state arrays.  R maintenance runs in a
 * fixed canonical order (elementwise adjust against the old midpoints in
 * ascending changed order, then fresh tree-folded rows for the changed
 * edges) that the scalar engine replicates exactly.  Returns -1 when a
 * grid cell overflows cap: seg/mid/R are already updated, and the caller
 * rebuilds the grid from seg with a larger cap. */
int64_t mc_commit(const int64_t *ip, double bucket, int64_t k,
                  const int64_t *changed, const double *newseg,
                  const double *newmid, double *seg, double *mid,
                  double *R, int64_t *cell_count, int64_t *cell_items,
                  int64_t *edge_range, double *scratch,
                  const int64_t *eu, const int64_t *ev,
                  int64_t *stamp, int64_t *gen, int64_t *crossC,
                  int64_t *cflag) {
    int64_t m = ip[0], pad = ip[1];
    int64_t t, u, j;
    int64_t status = 0;
    int64_t new_range[4];

    /* Crossing-cache maintenance, while the grid and seg still hold the
     * old geometry: cancel each changed edge's old crossings with the
     * unchanged edges, add its new ones, and recount the changed-vs-
     * changed pairs from scratch.  Integer arithmetic throughout, so the
     * cache stays exactly equal to a full recount. */
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 1;
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        cross_vs_grid(seg + 4 * i, edge_range + 4 * i, eu[i], ev[i], cflag,
                      ip, seg, eu, ev, cell_count, cell_items, stamp, gen,
                      crossC, -1);
        cell_range(newseg + 4 * t, bucket, ip, new_range);
        crossC[i] = cross_vs_grid(
            newseg + 4 * t, new_range, eu[i], ev[i], cflag,
            ip, seg, eu, ev, cell_count, cell_items, stamp, gen,
            crossC, +1);
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        for (u = t + 1; u < k; u++) {
            int64_t other = changed[u];
            if (eu[i] == eu[other] || eu[i] == ev[other]
                || ev[i] == eu[other] || ev[i] == ev[other]) {
                continue;
            }
            if (segments_cross(newseg + 4 * t, newseg + 4 * u)) {
                crossC[i] += 1;
                crossC[other] += 1;
            }
        }
    }
    for (t = 0; t < k; t++) {
        cflag[changed[t]] = 0;
    }

    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        double new_row = newmid[2 * t], new_col = newmid[2 * t + 1];
        double old_row = mid[2 * i], old_col = mid[2 * i + 1];
        for (j = 0; j < m; j++) {
            double d_new = dist2d(new_row, new_col, mid[2 * j], mid[2 * j + 1]);
            double d_old = dist2d(old_row, old_col, mid[2 * j], mid[2 * j + 1]);
            R[j] += d_new - d_old;
        }
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        seg[4 * i] = newseg[4 * t];
        seg[4 * i + 1] = newseg[4 * t + 1];
        seg[4 * i + 2] = newseg[4 * t + 2];
        seg[4 * i + 3] = newseg[4 * t + 3];
        mid[2 * i] = newmid[2 * t];
        mid[2 * i + 1] = newmid[2 * t + 1];
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        double row = mid[2 * i], col = mid[2 * i + 1];
        for (j = 0; j < m; j++) {
            scratch[j] = dist2d(row, col, mid[2 * j], mid[2 * j + 1]);
        }
        R[i] = treefold(scratch, m, pad);
    }
    for (t = 0; t < k; t++) {
        int64_t i = changed[t];
        grid_remove(i, edge_range + 4 * i, ip, cell_count, cell_items);
        cell_range(newseg + 4 * t, bucket, ip, edge_range + 4 * i);
        if (status == 0
            && grid_insert(i, edge_range + 4 * i, ip, cell_count,
                           cell_items) != 0) {
            status = -1;
        }
    }
    return status;
}
