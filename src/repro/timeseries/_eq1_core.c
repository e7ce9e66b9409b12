/*
 * One RRA rank in C (paper Algorithm 1 with the Eq. 1 distance): the
 * outer loop, the per-candidate inner ordering and its lazy random tail,
 * the scans, and the candidate table they read.  Loaded through ctypes by
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
 *   - a pair or an alignment offset is skipped only where a PAA lower
 *     bound, less a rigorous rounding margin, proves that its distance
 *     cannot change the scan's outcome or the pair's minimum (DESIGN.md
 *     section 20); every distance that is computed is computed as above;
 * The inner loop's random tail is repro/discord/inner_order.py's, draw
 * for draw: a SplitMix64 substream per outer candidate, Lemire's exact
 * bounded draws and a forward sparse Fisher-Yates over the candidates
 * outside the same-rule group (eq1_key, eq1_draw, eq1_tail).
 * Build with -ffp-contract=off and no fast-math so that every sub, min,
 * clamp and sqrt rounds like NumPy and math.sqrt.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <unistd.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);

/* np.correlate switches to an unrolled loop at or below this length. */
#define SMALL_KERNEL 11
#define EMPTY_KEY UINT64_MAX

/* The lower bound (DESIGN.md section 20): PAA segments of the shorter
 * candidate, the unit roundoffs of float64 and float32, the split
 * (a + d)^2 <= (1 + ETA) a^2 + (1 + 1/ETA) d^2 of a rounding error d off
 * a segment difference a, and the largest absolute value sum of an id
 * that gets a bound (larger ones, and non-finite ones, get none). */
#define SEGMENTS 32
#define U64 0x1p-53
#define U32 0x1p-24
#define ETA 0x1p-8
#define L1_MAX 0x1p50
/* Offsets whose bounds are computed together. */
#define LANES 8
/* The bounds get an AVX2 clone beside the baseline one where GCC can
 * dispatch between them at load time (ifunc, x86-64 glibc). */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) && defined(__GLIBC__)
#define BOUND_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define BOUND_CLONES
#endif

typedef struct {
    ddot_fn ddot;
    /* per-id tables */
    int64_t n_ids, cap_ids;
    int64_t *start, *len, *off;
    double *sqnorm;
    /* error scale of the id's float32 window sums; -1 when unbounded */
    double *sum_err;
    /* value pool per id: len values, len + 1 squared cumsums, then the
     * len + 1 float32 prefix sums of the values (in whole doubles) */
    double *pool;
    int64_t pool_used, pool_cap;
    /* pair-distance memo: open addressing, linear probing */
    uint64_t *keys;
    double *dists;
    int64_t memo_used, memo_cap;
    /* the lazy tail's scratch: the displaced slot values, stamped with
     * the generation of the tail that wrote them, so a new tail needs
     * no clearing */
    int64_t *slot_value;
    uint64_t *slot_stamp;
    int64_t slot_cap;
    uint64_t generation;
    /* the bound's scratch: window sums and per-offset bounds */
    float *window_sums, *bounds;
    int64_t bound_cap;
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

/*
 * The value pool is mapped from the system directly, not taken from
 * malloc: glibc raises its mmap threshold to the size of every mapped
 * block that is freed, after which later pools of that size come from
 * the heap and stay resident once freed, so a process that runs many
 * searches would keep its largest pools.  Under AddressSanitizer the
 * pool is malloc'd, so that its bounds are checked.
 *
 * The pool of the last freed table stays parked for the next search,
 * which would otherwise fault in every page of a fresh mapping.  A
 * parked pool is MADV_FREE'd, so the kernel may reclaim it under memory
 * pressure (its pages then read as zero; a pool is written before it is
 * read), and MADV_WIPEONFORK'd, so a forked child does not share its
 * pages.  A child never reuses it either: the pool is stamped with the
 * parking process's pid.  A pool in use is kept on fork.  The core's
 * calls hold the GIL, so these statics need no lock.
 */
#if defined(MAP_ANONYMOUS) && !defined(__SANITIZE_ADDRESS__)
static double *pool_map(int64_t words) {
    void *p = mmap(NULL, (size_t)words * sizeof(double), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}
static void pool_unmap(double *pool, int64_t words) {
    if (pool) munmap(pool, (size_t)words * sizeof(double));
}
/* Advice for a pool being parked (1) or taken back into use (0); a
 * kernel without some advice just keeps the pages. */
static void pool_advise(double *pool, int64_t words, int parking) {
    size_t bytes = (size_t)words * sizeof(double);
#ifdef MADV_FREE
    if (parking) madvise(pool, bytes, MADV_FREE);
#endif
#if defined(MADV_WIPEONFORK) && defined(MADV_KEEPONFORK)
    madvise(pool, bytes, parking ? MADV_WIPEONFORK : MADV_KEEPONFORK);
#endif
    (void)bytes;
}
#else
static double *pool_map(int64_t words) { return malloc((size_t)words * sizeof(double)); }
static void pool_unmap(double *pool, int64_t words) { (void)words; free(pool); }
static void pool_advise(double *pool, int64_t words, int parking) {
    (void)pool, (void)words, (void)parking;
}
#endif

static double *parked;
static int64_t parked_words;
static pid_t parked_pid;

/* A pool of at least words doubles, its size in *cap: the parked one
 * when this process parked it and it is large enough, else a new one,
 * mapped after any parked one is unmapped. */
static double *pool_take(int64_t words, int64_t *cap) {
    if (parked && (parked_pid != getpid() || parked_words < words)) {
        pool_unmap(parked, parked_words);
        parked = NULL;
    }
    double *pool = parked;
    if (pool) {
        parked = NULL;
        pool_advise(pool, parked_words, 0);
        *cap = parked_words;
        return pool;
    }
    pool = pool_map(words);
    if (pool) *cap = words;
    return pool;
}

/* Park a freed table's pool in place of the parked one. */
static void pool_park(double *pool, int64_t words) {
    if (!pool) return;
    pool_unmap(parked, parked_words);
    pool_advise(pool, words, 1);
    parked = pool;
    parked_words = words;
    parked_pid = getpid();
}

/* The size in doubles of the pool this process parked, else 0. */
int64_t eq1_parked(void) { return parked && parked_pid == getpid() ? parked_words : 0; }

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
    pool_park(s->pool, s->pool_cap);
    free(s->keys);
    free(s->dists);
    free(s->slot_value);
    free(s->slot_stamp);
    free(s->sum_err);
    free(s->window_sums);
    free(s->bounds);
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
 * cumulative sum in the sequential order of np.cumsum.  The bound's
 * inputs follow: the prefix sums of the values, summed in double and
 * stored as float32, and the error scale of window sums taken from them
 * (DESIGN.md section 20).  Returns the id of the first interval (the
 * rest follow consecutively), or -1 when out of memory.
 */
static int64_t pool_words(int64_t n) { return 2 * n + 1 + (n + 2) / 2; }

int64_t eq1_add_spans(eq1_set *s, int64_t count, const int64_t *start,
                      const int64_t *end, const double *x, const double *c,
                      const double *c2, double threshold) {
    int64_t need_ids = s->n_ids + count, need_pool = s->pool_used;
    for (int64_t i = 0; i < count; i++) need_pool += pool_words(end[i] - start[i]);
    if (need_ids > s->cap_ids) {
        int64_t cap = s->cap_ids ? 2 * s->cap_ids : 256;
        while (cap < need_ids) cap *= 2;
        if (grow((void **)&s->start, cap, sizeof(int64_t)) ||
            grow((void **)&s->len, cap, sizeof(int64_t)) ||
            grow((void **)&s->off, cap, sizeof(int64_t)) ||
            grow((void **)&s->sqnorm, cap, sizeof(double)) ||
            grow((void **)&s->sum_err, cap, sizeof(double)))
            return -1;
        s->cap_ids = cap;
    }
    if (need_pool > s->pool_cap) {
        /* Exact on the first call, which usually registers every
         * candidate of a search; geometric after that. */
        int64_t cap = s->pool_cap + s->pool_cap / 2;
        if (cap < need_pool) cap = need_pool;
        double *pool = pool_take(cap, &cap);
        if (!pool) return -1;
        if (s->pool_used) memcpy(pool, s->pool, (size_t)s->pool_used * sizeof(double));
        pool_unmap(s->pool, s->pool_cap);
        s->pool = pool;
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
        /* Three independent sequential sums in one loop, each in its own
         * order: the squared cumsum, the absolute sum and the prefix. */
        float *prefix = (float *)(cum + n + 1);
        double sq = 0.0, l1 = 0.0, sum = 0.0;
        cum[0] = 0.0;
        prefix[0] = 0.0f;
        for (int64_t k = 0; k < n; k++) {
            double v = values[k];
            sq += v * v;
            cum[k + 1] = sq;
            l1 += fabs(v);
            sum += v;
            prefix[k + 1] = (float)sum;
        }
        int bounded = l1 <= L1_MAX; /* false for inf and NaN */
        if (!bounded) memset(prefix, 0, (size_t)(n + 1) * sizeof(float));
        s->start[id] = a;
        s->len[id] = n;
        s->off[id] = s->pool_used;
        s->sqnorm[id] = sqnorm;
        s->sum_err[id] = bounded
            ? (2.1 * (double)(n + 2) * U64 + 4.2 * U32) * l1 + 0x1p-140 : -1.0;
        s->pool_used += pool_words(n);
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

/* Squared Eq. 1 distance of short k (n values, squared norm k_sqnorm) and
 * long x (squared cumsum cum) at offset o, as NumPy evaluates it. */
static double offset_sq(const eq1_set *s, const double *k, double k_sqnorm,
                        const double *x, const double *cum, int64_t n, int64_t o) {
    return (k_sqnorm + (cum[o + n] - cum[o])) - 2.0 * cross(s, x + o, k, n);
}

/* The id's float32 prefix sums of its values (after its squared cumsum). */
static const float *prefix_of(const eq1_set *s, int64_t id) {
    return (const float *)(s->pool + s->off[id] + 2 * s->len[id] + 1);
}

/* Room for the bound's scratch of a longer candidate of length n. */
static int bound_scratch(eq1_set *s, int64_t n) {
    n += LANES;
    if (n <= s->bound_cap) return 0;
    if (grow((void **)&s->window_sums, n, sizeof(float)) ||
        grow((void **)&s->bounds, n, sizeof(float)))
        return -1;
    s->bound_cap = n;
    return 0;
}

/* LANES float32s in one vector (GCC and Clang vector extensions; the
 * compiler splits or scalarizes it where the target has no such unit). */
typedef float lanes_t __attribute__((vector_size(4 * LANES)));
typedef int32_t lane_mask_t __attribute__((vector_size(4 * LANES)));
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wpsabi" /* lanes_t never crosses a call */
#endif

static inline __attribute__((always_inline)) lanes_t load_lanes(const float *p) {
    lanes_t v;
    memcpy(&v, p, sizeof v);
    return v;
}

/*
 * The float32 PAA bounds of one pair (DESIGN.md section 20).  The
 * shorter candidate's first SEGMENTS * w values form SEGMENTS segments of
 * width w; sk holds their sums and ws the longer candidate's width-w
 * window sums, both differences of float32 prefix sums, and
 *   bounds[o] = sum_g (ws[o + g w] - sk[g])^2,
 * which is at most w times the pair's exact squared distance at offset o
 * (Cauchy-Schwarz on each segment), up to the margin pair() adds.
 * LANES offsets are bounded at once, each as four interleaved partial
 * sums; ws is zero-padded so that the last group reads no garbage, and
 * bounds past the last offset are never read.  Returns the least bound.
 */
BOUND_CLONES
static float paa_bounds(const float *restrict short_prefix,
                        const float *restrict long_prefix, int64_t w,
                        int64_t offsets, float *restrict ws,
                        float *restrict bounds) {
    float sk[SEGMENTS];
    for (int64_t g = 0; g < SEGMENTS; g++)
        sk[g] = short_prefix[(g + 1) * w] - short_prefix[g * w];
    int64_t n_ws = offsets + (SEGMENTS - 1) * w, t = 0;
    for (; t + LANES <= n_ws; t += LANES) {
        lanes_t v = load_lanes(long_prefix + t + w) - load_lanes(long_prefix + t);
        memcpy(ws + t, &v, sizeof v);
    }
    for (; t < n_ws; t++) ws[t] = long_prefix[t + w] - long_prefix[t];
    for (; t < n_ws + LANES - 1; t++) ws[t] = 0.0f;
    lanes_t least = (lanes_t){0.0f} + INFINITY;
    float tail = INFINITY;
    for (int64_t o = 0; o < offsets; o += LANES) {
        lanes_t a0 = {0.0f}, a1 = {0.0f}, a2 = {0.0f}, a3 = {0.0f};
        for (int64_t g = 0; g < SEGMENTS; g += 4) {
            const float *wg = ws + o + g * w;
            lanes_t d0 = load_lanes(wg) - sk[g];
            lanes_t d1 = load_lanes(wg + w) - sk[g + 1];
            lanes_t d2 = load_lanes(wg + 2 * w) - sk[g + 2];
            lanes_t d3 = load_lanes(wg + 3 * w) - sk[g + 3];
            a0 += d0 * d0;
            a1 += d1 * d1;
            a2 += d2 * d2;
            a3 += d3 * d3;
        }
        lanes_t sum = (a0 + a1) + (a2 + a3);
        memcpy(bounds + o, &sum, sizeof sum);
        if (o + LANES <= offsets) {
            lane_mask_t lower = sum < least;
            least = (lanes_t)(((lane_mask_t)sum & lower) | ((lane_mask_t)least & ~lower));
        } else {
            for (int64_t j = o; j < offsets; j++)
                if (bounds[j] < tail) tail = bounds[j];
        }
    }
    for (int j = 0; j < LANES; j++)
        if (least[j] < tail) tail = least[j];
    return tail;
}

/*
 * Eq. 1 distance between ids a and b (no memo) into *out and 1; or 0
 * when the distance is proved to be at least nearest.  Counts the pair
 * in work[0] when it evaluates any offset, and each offset in work[1].
 *
 * With a bound (the shorter length is at least SEGMENTS and both ids
 * are bounded), a bound b[o] above k1 * t + k0 proves that the computed
 * squared distance at offset o exceeds t >= 0.  Let T = nearest^2 n
 * (1 + 8u), a squared distance above which rounds to a distance of at
 * least nearest (T is infinite unless nearest is finite and at least
 * 2^-500).  The call returns 0, computing nothing, when the bound
 * exceeds k1 T + k0 at every offset.  Otherwise it evaluates the offset
 * of the least bound first, then only the offsets whose bound does not
 * exceed k1 min(m, T) + k0 for the running minimum m.  If the minimum
 * ends at most T, every skipped offset lies above it and the distance
 * is the one of all offsets; else every offset lies above T and the
 * call returns 0 (DESIGN.md section 20).
 */
static int pair(eq1_set *s, int64_t a, int64_t b, double nearest, double *out,
                int64_t *work) {
    int64_t na = s->len[a], nb = s->len[b];
    int64_t shrt = na < nb ? a : b, lng = na < nb ? b : a;
    int64_t n = s->len[shrt], n_long = s->len[lng], offsets = n_long - n + 1;
    const double *k = s->pool + s->off[shrt];
    const double *x = s->pool + s->off[lng];
    const double *cum = x + n_long;
    double short_sqnorm = s->sqnorm[shrt];
    const float *bounds = NULL;
    float least = 0.0f;
    double k1 = 0.0, k0 = 0.0, cap = INFINITY;
    if (n >= SEGMENTS && s->sum_err[shrt] >= 0.0 && s->sum_err[lng] >= 0.0 &&
        (offsets > 1 || nearest < INFINITY) && bound_scratch(s, n_long) == 0) {
        int64_t w = n / SEGMENTS;
        least = paa_bounds(prefix_of(s, shrt), prefix_of(s, lng), w, offsets,
                           s->window_sums, s->bounds);
        bounds = s->bounds;
        double err = 6.0 * (double)(n_long + 3) * U64 * (short_sqnorm + cum[n_long]);
        double delta = s->sum_err[shrt] + s->sum_err[lng];
        double rho = 1.0 + 2.0 * (SEGMENTS + 3) * U32, pad = 1.0 + 64.0 * U64;
        k1 = pad * rho * (1.0 + ETA) * (double)w;
        k0 = pad * (rho * ((1.0 + ETA) * (double)w * err +
                           SEGMENTS * (1.0 + 1.0 / ETA) * delta * delta) + 0x1p-130);
        if (nearest >= 0x1p-500 && nearest < INFINITY) {
            cap = nearest * nearest * (double)n * (1.0 + 8.0 * U64);
            if ((double)least > k1 * cap + k0) return 0;
        }
    }
    work[0]++;
    if (na == nb) {
        const double *va = s->pool + s->off[a], *vb = s->pool + s->off[b];
        double dot = 0.0;
        dot += s->ddot(na, va, 1, vb, 1);
        work[1]++;
        double sq = s->sqnorm[a] + s->sqnorm[b] - 2.0 * dot;
        if (0.0 > sq) sq = 0.0; /* Python max(sq, 0.0): keeps NaN */
        *out = sqrt(sq / (double)na);
        return 1;
    }
    int64_t first = 0;
    if (bounds)
        while (bounds[first] != least) first++;
    double best = offset_sq(s, k, short_sqnorm, x, cum, n, first);
    double t = best > 0.0 ? best : 0.0;
    double limit = k1 * (t < cap ? t : cap) + k0;
    work[1]++;
    for (int64_t o = 0; o < offsets && !isnan(best); o++) {
        if (o == first || (bounds && (double)bounds[o] > limit)) continue;
        double sq = offset_sq(s, k, short_sqnorm, x, cum, n, o);
        work[1]++;
        if (isnan(sq) || sq < best) { /* np.min propagates NaN */
            best = sq;
            t = best > 0.0 ? best : 0.0;
            limit = k1 * (t < cap ? t : cap) + k0;
        }
    }
    if (best > cap) return 0;
    if (best < 0.0) best = 0.0;
    *out = sqrt(best / (double)n);
    return 1;
}

/*
 * The memoized Eq. 1 distance between ids a and b into *dist, and 1; or
 * 0 when it is proved to be at least nearest and so cannot lower it: no
 * distance is below 0.0, and pair() may prove it from the bound.  Such
 * a pair yields no distance and is not memoized.
 */
static int distance_below(eq1_set *s, int64_t a, int64_t b, double nearest,
                          double *dist, int64_t *work) {
    if (nearest == 0.0) return 0;
    if (memo_get(s, a, b, dist)) return 1;
    if (!pair(s, a, b, nearest, dist, work)) return 0;
    memo_put(s, a, b, *dist);
    return 1;
}

/* Memoized Eq. 1 distance between ids a and b. */
double eq1_distance(eq1_set *s, int64_t a, int64_t b) {
    double dist;
    int64_t work[2] = {0, 0};
    distance_below(s, a, b, INFINITY, &dist, work);
    return dist;
}


/*
 * One pair (p, q) of p's inner loop.  Skips a trivial self match
 * (|p.start - q.start| <= len(p), paper line 7); counts any other pair in
 * *visited and returns 1 when its distance is below best_dist (the scan
 * abandons p), else lowers *nearest to it.  A pair proved to be at least
 * *nearest is counted but yields no distance: since nearest >= best_dist,
 * it could neither abandon p nor lower nearest.
 */
static inline int visit(eq1_set *s, int64_t p, int64_t q, double best_dist,
                        double *nearest, int64_t *visited, int64_t *work) {
    int64_t gap = s->start[p] - s->start[q];
    if (gap < 0) gap = -gap;
    if (gap <= s->len[p]) return 0;
    ++*visited;
    double dist;
    if (!distance_below(s, p, q, *nearest, &dist, work)) return 0;
    if (dist < best_dist) return 1;
    if (dist < *nearest) *nearest = dist;
    return 0;
}

/*
 * One outer candidate p's inner loop over ids[0..n): visit() per id, up
 * to the first pair that abandons p.  Writes the nearest distance seen
 * and adds the call count to *calls; returns 1 when the scan abandoned
 * p, else 0.  The pairs and offsets computed are added to work[0] and
 * work[1].
 */
int eq1_scan(eq1_set *s, int64_t p, const int64_t *ids, int64_t n,
             double best_dist, double *nearest_out, int64_t *calls,
             int64_t *work) {
    double nearest = INFINITY;
    int64_t visited = 0;
    int abandoned = 0;
    for (int64_t i = 0; i < n && !abandoned; i++)
        abandoned = visit(s, p, ids[i], best_dist, &nearest, &visited, work);
    *nearest_out = nearest;
    *calls += visited;
    return abandoned;
}

/* SplitMix64 (repro/discord/inner_order.py): its increment, its
 * finalizer, and the stream state of the tail of outer position k in
 * rank rank of a search with seed. */
#define GAMMA 0x9e3779b97f4a7c15ULL

static inline uint64_t mix64(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t eq1_key(uint64_t seed, uint64_t rank, uint64_t k) {
    uint64_t h = mix64(seed + GAMMA);
    h = mix64(h ^ (rank + GAMMA));
    return mix64(h ^ (k + GAMMA));
}

/* A uniform draw in [0, n), 1 <= n, from the stream at *state, which it
 * advances: Lemire's multiply with rejection, the high word of x * n,
 * rejected while the low word is below 2^64 mod n. */
uint64_t eq1_draw(uint64_t *state, uint64_t n) {
    unsigned __int128 product = (unsigned __int128)mix64(*state += GAMMA) * n;
    if ((uint64_t)product < n) {
        uint64_t threshold = -n % n;
        while ((uint64_t)product < threshold)
            product = (unsigned __int128)mix64(*state += GAMMA) * n;
    }
    return (uint64_t)(product >> 64);
}

/* The lazy tail of one outer candidate: the virtual indices [0, m) of
 * the candidate positions outside its ascending group[0..g) (m = n - g),
 * in a forward sparse Fisher-Yates driven by the stream at state.  Step
 * i swaps slot i with a slot drawn from [i, m) and yields it; a slot
 * holds its own index unless its stamp is the tail's generation. */
typedef struct {
    const int64_t *group;
    int64_t g, m, i;
    uint64_t state, generation;
} tail_t;

/* Room for the tail scratch of n candidates; a new generation. */
static int tail_start(eq1_set *s, tail_t *t, int64_t n, const int64_t *group,
                      int64_t g, uint64_t key) {
    if (n > s->slot_cap) {
        if (grow((void **)&s->slot_value, n, sizeof(int64_t)) ||
            grow((void **)&s->slot_stamp, n, sizeof(uint64_t)))
            return -1;
        memset(s->slot_stamp, 0, (size_t)n * sizeof(uint64_t));
        s->slot_cap = n;
    }
    *t = (tail_t){group, g, n - g, 0, key, ++s->generation};
    return 0;
}

/* The next position of the tail (t->i < t->m): the drawn slot's virtual
 * index v, plus the group members at or below the v-th non-member (a
 * binary search over group[j] - j, which does not decrease). */
static inline int64_t tail_next(eq1_set *s, tail_t *t) {
    int64_t i = t->i++;
    int64_t j = i + (int64_t)eq1_draw(&t->state, (uint64_t)(t->m - i));
    int64_t v = s->slot_stamp[i] == t->generation ? s->slot_value[i] : i;
    if (j != i) {
        int64_t w = s->slot_stamp[j] == t->generation ? s->slot_value[j] : j;
        s->slot_value[j] = v;
        s->slot_stamp[j] = t->generation;
        v = w;
    }
    int64_t lo = 0, hi = t->g;
    while (lo < hi) {
        int64_t mid = lo + (hi - lo) / 2;
        if (t->group[mid] - mid <= v) lo = mid + 1;
        else hi = mid;
    }
    return v + lo;
}

/* The first take positions of the tail of key over n candidates less the
 * ascending group[0..g), into out (take <= n - g); 0, or -1 when out of
 * memory.  The parity probe's and the tests' view of eq1_rank's tails. */
int64_t eq1_tail(eq1_set *s, int64_t n, const int64_t *group, int64_t g,
                 uint64_t key, int64_t take, int64_t *out) {
    tail_t t;
    if (tail_start(s, &t, n, group, g, key)) return -1;
    for (int64_t i = 0; i < take; i++) out[i] = tail_next(s, &t);
    return 0;
}

/*
 * Outer candidates first, first + 1, ... of rank rank of an RRA search
 * with seed (paper Algorithm 1).  ids gives each candidate's table id in
 * candidate order, and the key index its same-rule candidates: same
 * lists the candidate positions grouped by rule key and ascending within
 * a key, and candidate i's group is same[lo[i] .. hi[i]) (empty for a
 * gap).  outer[k] is the candidate at outer position k.  Per outer
 * candidate p the inner loop visits p's same-rule ids in candidate
 * order, then the other ids (all of them for a gap) in the random order
 * of the tail keyed by (seed, rank, k), drawn one at a time: a candidate
 * abandoned within its group draws nothing.
 *
 * Runs up to, not including, outer position stop, and stops earlier
 * before any position k > first at which the pairs counted by this call
 * reach calls_left.  Updates *best_dist and *best (the outer position of
 * a new best, else unchanged) and adds the pairs to *calls.  For each
 * outer position k run, flags[k - first] is 1 when p was abandoned, 2
 * when it became the best, else 0, and outer_calls[k - first] is its
 * pair count.  The pairs and offsets computed are added to work[0] and
 * work[1].  Returns the position it stopped before, or -1 when out of
 * memory.
 */
int64_t eq1_rank(eq1_set *s, int64_t n, const int64_t *ids, const int64_t *same,
                 const int64_t *lo, const int64_t *hi,
                 const int64_t *outer, uint64_t seed, uint64_t rank, int64_t first,
                 int64_t stop, int64_t calls_left, double *best_dist,
                 int64_t *best, int64_t *calls, int8_t *flags,
                 int64_t *outer_calls, int64_t *work) {
    int64_t spent = 0, k;
    for (k = first; k < stop && (k == first || spent < calls_left); k++) {
        int64_t p = outer[k], p_id = ids[p], visited = 0;
        double nearest = INFINITY;
        int abandoned = 0;
        for (int64_t j = lo[p]; j < hi[p] && !abandoned; j++)
            abandoned = visit(s, p_id, ids[same[j]], *best_dist, &nearest, &visited, work);
        if (!abandoned) {
            tail_t t;
            if (tail_start(s, &t, n, same + lo[p], hi[p] - lo[p],
                           eq1_key(seed, rank, (uint64_t)k)))
                return -1;
            while (t.i < t.m && !abandoned)
                abandoned = visit(s, p_id, ids[tail_next(s, &t)], *best_dist, &nearest,
                                  &visited, work);
        }
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
