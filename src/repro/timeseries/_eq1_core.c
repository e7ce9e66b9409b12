/*
 * One RRA rank in C (paper Algorithm 1 with the Eq. 1 distance): the
 * outer loop, the per-candidate inner ordering and its shuffle, the
 * scans, and the candidate table they read.  Loaded through ctypes by
 * repro/timeseries/eq1core.py.
 *
 * The core owns flat per-interval tables (start, length, z-normalized
 * values, squared cumulative sum, squared norm), indexed by a stable id
 * that the Python side assigns per distinct (start, end), and a memo of
 * pair distances keyed by the unordered id pair.  The tables are built
 * here from the centred prefix sums that repro.timeseries.kernels.
 * SeriesStats holds.
 *
 * The arithmetic reproduces the Python path bit for bit:
 *   - the table build is SeriesStats.znorm, np.dot and np.cumsum, in
 *     the same operations and order (eq1_add_spans);
 *   - cross terms go through the cblas_ddot that NumPy itself calls (the
 *     caller passes its address; no BLAS is linked here), accumulated as
 *     NumPy's DOUBLE_dot does (0.0 + ddot);
 *   - np.correlate's unrolled small-kernel loop (kernel length <= 11)
 *     is reproduced as the same left-to-right sum;
 *   - Python's max(sq, 0.0), NumPy's NaN-propagating min and the
 *     best < 0.0 clamp are written literally;
 *   - the shuffle is Generator.shuffle's Fisher-Yates over NumPy's
 *     random_interval, drawn through the generator's own bitgen_t, so
 *     the permutation and the generator state afterwards are NumPy's.
 * Build with -ffp-contract=off and no fast-math so that every sub, min,
 * clamp and sqrt rounds like NumPy and math.sqrt.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

/* np.correlate switches to an unrolled loop at or below this length. */
#define SMALL_KERNEL 11
#define EMPTY_KEY UINT64_MAX

typedef struct {
    ddot_fn ddot;
    /* per-id tables */
    int64_t n_ids, cap_ids;
    int64_t *start, *len, *off;
    double *sqnorm;
    /* value pool: len values then len + 1 squared cumsums per id */
    double *pool;
    int64_t pool_used, pool_cap;
    /* pair-distance memo: open addressing, linear probing */
    uint64_t *keys;
    double *dists;
    int64_t memo_used, memo_cap;
    /* eq1_rank's inner-order scratch */
    int64_t *order;
    int64_t order_cap;
} eq1_set;

static uint64_t hash64(uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

static uint64_t pair_key(int64_t a, int64_t b) {
    uint64_t lo = (uint64_t)(a < b ? a : b), hi = (uint64_t)(a < b ? b : a);
    return (lo << 32) | hi;
}

static int memo_alloc(eq1_set *s, int64_t cap) {
    uint64_t *keys = malloc((size_t)cap * sizeof *keys);
    double *dists = malloc((size_t)cap * sizeof *dists);
    if (!keys || !dists) {
        free(keys);
        free(dists);
        return -1;
    }
    memset(keys, 0xff, (size_t)cap * sizeof *keys);
    uint64_t *old_keys = s->keys;
    double *old_dists = s->dists;
    int64_t old_cap = s->memo_cap;
    s->keys = keys;
    s->dists = dists;
    s->memo_cap = cap;
    for (int64_t i = 0; i < old_cap; i++) {
        if (old_keys[i] == EMPTY_KEY) continue;
        uint64_t slot = hash64(old_keys[i]) & (uint64_t)(cap - 1);
        while (keys[slot] != EMPTY_KEY) slot = (slot + 1) & (uint64_t)(cap - 1);
        keys[slot] = old_keys[i];
        dists[slot] = old_dists[i];
    }
    free(old_keys);
    free(old_dists);
    return 0;
}

static int64_t memo_slot(const eq1_set *s, uint64_t key) {
    uint64_t mask = (uint64_t)(s->memo_cap - 1);
    uint64_t slot = hash64(key) & mask;
    while (s->keys[slot] != EMPTY_KEY && s->keys[slot] != key) slot = (slot + 1) & mask;
    return (int64_t)slot;
}

static int memo_get(eq1_set *s, int64_t a, int64_t b, double *out) {
    int64_t slot = memo_slot(s, pair_key(a, b));
    if (s->keys[slot] == EMPTY_KEY) return 0;
    *out = s->dists[slot];
    return 1;
}

/* The memo is only a cache: when it cannot grow, the pair is not stored. */
static void memo_put(eq1_set *s, int64_t a, int64_t b, double dist) {
    if (2 * (s->memo_used + 1) > s->memo_cap && memo_alloc(s, 2 * s->memo_cap) != 0)
        return;
    uint64_t key = pair_key(a, b);
    int64_t slot = memo_slot(s, key);
    if (s->keys[slot] == EMPTY_KEY) {
        s->keys[slot] = key;
        s->memo_used++;
    }
    s->dists[slot] = dist;
}

void *eq1_new(void *ddot) {
    eq1_set *s = calloc(1, sizeof *s);
    if (!s) return NULL;
    s->ddot = (ddot_fn)ddot;
    if (memo_alloc(s, 1024) != 0) {
        free(s);
        return NULL;
    }
    return s;
}

void eq1_free(eq1_set *s) {
    if (!s) return;
    free(s->start);
    free(s->len);
    free(s->off);
    free(s->sqnorm);
    free(s->pool);
    free(s->keys);
    free(s->dists);
    free(s->order);
    free(s);
}

static int grow(void **p, int64_t cap, size_t size) {
    void *q = realloc(*p, (size_t)cap * size);
    if (!q) return -1;
    *p = q;
    return 0;
}

/*
 * Register count intervals [start, end) of the series, z-normalized as
 * SeriesStats.znorm does from the centred series x and its prefix sums
 * c = [0, cumsum(x)] and c2 = [0, cumsum(x^2)]:
 *   mean = (c[e] - c[s]) / n, var = max(0.0, (c2[e] - c2[s]) / n - mean^2),
 *   values = x[s:e] - mean, divided by sqrt(var) when that is >= threshold;
 * then sqnorm = 0.0 + ddot(values, values), as np.dot, and the squared
 * cumulative sum in the sequential order of np.cumsum.  Returns the id
 * of the first interval (the rest follow consecutively), or -1 when out
 * of memory.
 */
int64_t eq1_add_spans(eq1_set *s, int64_t count, const int64_t *start,
                      const int64_t *end, const double *x, const double *c,
                      const double *c2, double threshold) {
    int64_t need_ids = s->n_ids + count, need_pool = s->pool_used;
    for (int64_t i = 0; i < count; i++) need_pool += 2 * (end[i] - start[i]) + 1;
    if (need_ids > s->cap_ids) {
        int64_t cap = s->cap_ids ? 2 * s->cap_ids : 256;
        while (cap < need_ids) cap *= 2;
        if (grow((void **)&s->start, cap, sizeof(int64_t)) ||
            grow((void **)&s->len, cap, sizeof(int64_t)) ||
            grow((void **)&s->off, cap, sizeof(int64_t)) ||
            grow((void **)&s->sqnorm, cap, sizeof(double)))
            return -1;
        s->cap_ids = cap;
    }
    if (need_pool > s->pool_cap) {
        /* Exact on the first call, which usually registers every
         * candidate of a search; geometric after that. */
        int64_t cap = s->pool_cap + s->pool_cap / 2;
        if (cap < need_pool) cap = need_pool;
        if (grow((void **)&s->pool, cap, sizeof(double))) return -1;
        s->pool_cap = cap;
    }
    int64_t first = s->n_ids;
    for (int64_t i = 0; i < count; i++) {
        int64_t a = start[i], n = end[i] - a, id = s->n_ids++;
        double *values = s->pool + s->pool_used, *cum = values + n;
        double mean = (c[a + n] - c[a]) / (double)n;
        double var = (c2[a + n] - c2[a]) / (double)n - mean * mean;
        double std = sqrt(var > 0.0 ? var : 0.0); /* Python max(0.0, var) */
        for (int64_t k = 0; k < n; k++) values[k] = x[a + k] - mean;
        if (std >= threshold)
            for (int64_t k = 0; k < n; k++) values[k] /= std;
        double sqnorm = 0.0;
        sqnorm += s->ddot(n, values, 1, values, 1);
        cum[0] = 0.0;
        for (int64_t k = 0; k < n; k++) cum[k + 1] = cum[k] + values[k] * values[k];
        s->start[id] = a;
        s->len[id] = n;
        s->off[id] = s->pool_used;
        s->sqnorm[id] = sqnorm;
        s->pool_used += 2 * n + 1;
    }
    return first;
}

/* np.correlate(long_, short) at one offset, as NumPy evaluates it. */
static double cross(const eq1_set *s, const double *x, const double *k, int64_t n) {
    double sum = 0.0;
    if (n <= SMALL_KERNEL) {
        for (int64_t j = 0; j < n; j++) sum += x[j] * k[j];
    } else {
        sum += s->ddot(n, x, 1, k, 1);
    }
    return sum;
}

/* Eq. 1 distance between ids a and b (no memo). */
static double pair(const eq1_set *s, int64_t a, int64_t b) {
    int64_t na = s->len[a], nb = s->len[b];
    const double *va = s->pool + s->off[a], *vb = s->pool + s->off[b];
    if (na == nb) {
        double dot = 0.0;
        dot += s->ddot(na, va, 1, vb, 1);
        double sq = s->sqnorm[a] + s->sqnorm[b] - 2.0 * dot;
        if (0.0 > sq) sq = 0.0; /* Python max(sq, 0.0): keeps NaN */
        return sqrt(sq / (double)na);
    }
    int64_t shrt = na < nb ? a : b, lng = na < nb ? b : a;
    int64_t n = s->len[shrt], offsets = s->len[lng] - n + 1;
    const double *k = s->pool + s->off[shrt];
    const double *x = s->pool + s->off[lng];
    const double *cum = x + s->len[lng];
    double short_sqnorm = s->sqnorm[shrt];
    double best = 0.0;
    for (int64_t o = 0; o < offsets; o++) {
        double sq = (short_sqnorm + (cum[o + n] - cum[o])) - 2.0 * cross(s, x + o, k, n);
        if (isnan(sq)) { /* np.min propagates NaN */
            best = sq;
            break;
        }
        if (o == 0 || sq < best) best = sq;
    }
    if (best < 0.0) best = 0.0;
    return sqrt(best / (double)n);
}

/* Memoized Eq. 1 distance between ids a and b. */
double eq1_distance(eq1_set *s, int64_t a, int64_t b) {
    double dist;
    if (memo_get(s, a, b, &dist)) return dist;
    dist = pair(s, a, b);
    memo_put(s, a, b, dist);
    return dist;
}

/*
 * One outer candidate p's inner loop over ids[0..n).  Skips trivial self
 * matches (|p.start - q.start| <= len(p), paper line 7), counts every
 * other pair as one distance call, and stops at the first distance below
 * best_dist.  Writes the nearest distance seen and adds the call count
 * to *calls; returns 1 when the scan abandoned p, else 0.
 */
int eq1_scan(eq1_set *s, int64_t p, const int64_t *ids, int64_t n,
             double best_dist, double *nearest_out, int64_t *calls) {
    int64_t p_start = s->start[p], p_len = s->len[p], visited = 0;
    double nearest = INFINITY;
    int abandoned = 0;
    for (int64_t i = 0; i < n; i++) {
        int64_t gap = p_start - s->start[ids[i]];
        if (gap < 0) gap = -gap;
        if (gap <= p_len) continue;
        visited++;
        double dist = eq1_distance(s, p, ids[i]);
        if (dist < best_dist) {
            abandoned = 1;
            break;
        }
        if (dist < nearest) nearest = dist;
    }
    *nearest_out = nearest;
    *calls += visited;
    return abandoned;
}

/* NumPy's bitgen_t (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* NumPy's random_interval (distributions.c): a uniform value in
 * [0, max] by masking and rejection, on 32-bit draws when max fits. */
static uint64_t random_interval(bitgen_t *g, uint64_t max) {
    uint64_t mask = max, value;
    if (max == 0) return 0;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    if (max <= 0xffffffffULL) {
        while ((value = (g->next_uint32(g->state) & mask)) > max)
            ;
    } else {
        while ((value = (g->next_uint64(g->state) & mask)) > max)
            ;
    }
    return value;
}

/* Generator.shuffle of a 1-d array: Fisher-Yates from the top, drawing
 * through the generator's own bitgen_t.  The caller holds its lock. */
void eq1_shuffle(void *bitgen, int64_t *a, int64_t n) {
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)random_interval(bitgen, (uint64_t)i);
        int64_t t = a[j];
        a[j] = a[i];
        a[i] = t;
    }
}

/*
 * Outer candidates first, first + 1, ... of one RRA rank (paper
 * Algorithm 1).  ids and keys give each candidate's table id and rule
 * key (-1 for gaps) in candidate order; outer[k] is the candidate at
 * outer position k.  Per outer candidate p the inner order is p's
 * same-rule ids in candidate order, then the other ids (all of them for
 * a gap) in candidate order, shuffled as rng.permutation does; the scan
 * is eq1_scan's.
 *
 * Runs up to, not including, outer position stop, and stops earlier
 * before any position k > first at which the pairs counted by this call
 * reach calls_left.  Updates *best_dist and *best (the outer position of
 * a new best, else unchanged) and adds the pairs to *calls.  For each
 * outer position k run, flags[k - first] is 1 when p was abandoned, 2
 * when it became the best, else 0, and outer_calls[k - first] is its
 * pair count.  Returns the position it stopped before, or -1 when out
 * of memory.
 */
int64_t eq1_rank(eq1_set *s, int64_t n, const int64_t *ids, const int64_t *keys,
                 const int64_t *outer, void *bitgen, int64_t first,
                 int64_t stop, int64_t calls_left, double *best_dist,
                 int64_t *best, int64_t *calls, int8_t *flags,
                 int64_t *outer_calls) {
    if (n > s->order_cap) {
        if (grow((void **)&s->order, n, sizeof(int64_t))) return -1;
        s->order_cap = n;
    }
    int64_t *order = s->order, spent = 0, k;
    for (k = first; k < stop && (k == first || spent < calls_left); k++) {
        int64_t p = outer[k], key = keys[p], n_same = 0, n_rest = 0;
        if (key >= 0)
            for (int64_t i = 0; i < n; i++)
                if (keys[i] == key) order[n_same++] = ids[i];
        for (int64_t i = 0; i < n; i++)
            if (key < 0 || keys[i] != key) order[n_same + n_rest++] = ids[i];
        eq1_shuffle(bitgen, order + n_same, n_rest);
        double nearest;
        int64_t visited = 0;
        int abandoned = eq1_scan(s, ids[p], order, n_same + n_rest, *best_dist,
                                 &nearest, &visited);
        spent += visited;
        flags[k - first] = (int8_t)abandoned;
        outer_calls[k - first] = visited;
        if (!abandoned && nearest < INFINITY && nearest > *best_dist) {
            *best_dist = nearest;
            *best = k;
            flags[k - first] = 2;
        }
    }
    *calls += spent;
    return k;
}
