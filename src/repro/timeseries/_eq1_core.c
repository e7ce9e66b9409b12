/*
 * RRA inner loop in C (paper Algorithm 1, lines 5-13, with the Eq. 1
 * distance).  Loaded through ctypes by repro/timeseries/eq1core.py.
 *
 * The core owns flat per-interval tables (start, length, z-normalized
 * values, squared cumulative sum, squared norm), indexed by a stable id
 * that the Python side assigns per distinct (start, end), and a memo of
 * pair distances keyed by the unordered id pair.  Every input float is
 * copied from the Python candidate set, so nothing is recomputed here.
 *
 * The arithmetic reproduces repro.core.rra._CandidateSet.pair_distance
 * bit for bit:
 *   - cross terms go through the cblas_ddot that NumPy itself calls (the
 *     caller passes its address; no BLAS is linked here), accumulated as
 *     NumPy's DOUBLE_dot does (0.0 + ddot);
 *   - np.correlate's unrolled small-kernel loop (kernel length <= 11)
 *     is reproduced as the same left-to-right sum;
 *   - Python's max(sq, 0.0), NumPy's NaN-propagating min and the
 *     best < 0.0 clamp are written literally.
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

int eq1_memo_get(eq1_set *s, int64_t a, int64_t b, double *out) {
    int64_t slot = memo_slot(s, pair_key(a, b));
    if (s->keys[slot] == EMPTY_KEY) return 0;
    *out = s->dists[slot];
    return 1;
}

/* The memo is only a cache: when it cannot grow, the pair is not stored. */
void eq1_memo_put(eq1_set *s, int64_t a, int64_t b, double dist) {
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
    free(s);
}

static int grow(void **p, int64_t cap, size_t size) {
    void *q = realloc(*p, (size_t)cap * size);
    if (!q) return -1;
    *p = q;
    return 0;
}

/*
 * Register count intervals; pool holds, per interval in order, its len
 * values followed by its len + 1 squared cumsums.  Returns the id of the
 * first one (the rest follow consecutively), or -1 when out of memory.
 */
int64_t eq1_add_many(eq1_set *s, int64_t count, const int64_t *start,
                     const int64_t *len, const double *sqnorm, const double *pool) {
    int64_t need_ids = s->n_ids + count, need_pool = s->pool_used;
    for (int64_t i = 0; i < count; i++) need_pool += 2 * len[i] + 1;
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
    memcpy(s->pool + s->pool_used, pool, (size_t)(need_pool - s->pool_used) * sizeof(double));
    int64_t first = s->n_ids;
    for (int64_t i = 0; i < count; i++) {
        int64_t id = s->n_ids++;
        s->start[id] = start[i];
        s->len[id] = len[i];
        s->off[id] = s->pool_used;
        s->sqnorm[id] = sqnorm[i];
        s->pool_used += 2 * len[i] + 1;
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
    if (eq1_memo_get(s, a, b, &dist)) return dist;
    dist = pair(s, a, b);
    eq1_memo_put(s, a, b, dist);
    return dist;
}

/*
 * One outer candidate p's inner loop: the ids same[0..n_same) first, then
 * rest[perm[j]] for j < n_rest (perm NULL means the identity).  Skips
 * trivial self matches (|p.start - q.start| <= len(p), paper line 7),
 * counts every other pair as one distance call, and stops at the first
 * distance below best_dist.  Writes the nearest distance seen and the
 * call count; returns 1 when the scan abandoned p, else 0.
 */
int eq1_scan(eq1_set *s, int64_t p, const int64_t *same, int64_t n_same,
             const int64_t *rest, const int64_t *perm, int64_t n_rest,
             double best_dist, double *nearest_out, int64_t *calls_out) {
    int64_t p_start = s->start[p], p_len = s->len[p], calls = 0;
    double nearest = INFINITY;
    int abandoned = 0;
    for (int64_t i = 0; i < n_same + n_rest; i++) {
        int64_t j = i - n_same;
        int64_t q = i < n_same ? same[i] : rest[perm ? perm[j] : j];
        int64_t gap = p_start - s->start[q];
        if (gap < 0) gap = -gap;
        if (gap <= p_len) continue;
        calls++;
        double dist = eq1_distance(s, p, q);
        if (dist < best_dist) {
            abandoned = 1;
            break;
        }
        if (dist < nearest) nearest = dist;
    }
    *nearest_out = nearest;
    *calls_out = calls;
    return abandoned;
}
