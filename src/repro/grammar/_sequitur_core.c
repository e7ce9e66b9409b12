/* Array-based Sequitur core over interned integer tokens.
 *
 * Mirrors the pure-Python reference implementation node for node:
 * nodes live in parallel arrays (code/prv/nxt) where -1 means "none".
 * Codes: terminal token id t -> 2t (even), nonterminal rule serial
 * s -> 2s+1 (odd), guard of rule serial s -> -s-1 (negative).  The
 * digram index maps packed keys (left_code << 42 | right_code) to the
 * left node id.
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define KSHIFT 42
#define EMPTY (-1)
#define TOMB (-2)

typedef struct {
    int64_t *code, *prv, *nxt;
    int64_t n_nodes, cap_nodes;
    int64_t *guards, *refcount;
    int64_t n_rules, cap_rules;
    int64_t *hkeys, *hvals;
    int64_t hcap, hlive, hused; /* live entries; live + tombstones */
    int hbits;                  /* hcap == 1 << hbits */
    int oom;
} Seq;

/* ---------------- hash map: packed digram key -> left node -------- */

/* Fibonacci hashing: the top bits of the product with 2^64 / phi, which
 * depend on every bit of the key.  (Low bits of a product depend only on
 * the key's low bits, which hold just the right symbol of a digram.) */
static uint64_t hash_key(int64_t key, int bits)
{
    return ((uint64_t)key * 0x9E3779B97F4A7C15ULL) >> (64 - bits);
}

static int map_rehash(Seq *s, int newbits)
{
    int64_t newcap = (int64_t)1 << newbits;
    int64_t *nk = malloc(newcap * sizeof(int64_t));
    int64_t *nv = malloc(newcap * sizeof(int64_t));
    int64_t i;
    if (!nk || !nv) {
        free(nk);
        free(nv);
        s->oom = 1;
        return -1;
    }
    for (i = 0; i < newcap; i++)
        nv[i] = EMPTY;
    for (i = 0; i < s->hcap; i++) {
        if (s->hvals[i] >= 0) {
            uint64_t j = hash_key(s->hkeys[i], newbits);
            while (nv[j] >= 0)
                j = (j + 1) & (newcap - 1);
            nk[j] = s->hkeys[i];
            nv[j] = s->hvals[i];
        }
    }
    free(s->hkeys);
    free(s->hvals);
    s->hkeys = nk;
    s->hvals = nv;
    s->hcap = newcap;
    s->hbits = newbits;
    s->hused = s->hlive;
    return 0;
}

/* slot of key, or slot of first EMPTY if absent (never TOMB for get) */
static int64_t map_find(const Seq *s, int64_t key)
{
    uint64_t mask = (uint64_t)s->hcap - 1;
    uint64_t j = hash_key(key, s->hbits);
    for (;;) {
        int64_t v = s->hvals[j];
        if (v == EMPTY)
            return (int64_t)j;
        if (v != TOMB && s->hkeys[j] == key)
            return (int64_t)j;
        j = (j + 1) & mask;
    }
}

static int64_t map_get(const Seq *s, int64_t key)
{
    int64_t slot = map_find(s, key);
    return s->hvals[slot] >= 0 ? s->hvals[slot] : -1;
}

static void map_put(Seq *s, int64_t key, int64_t val)
{
    uint64_t mask = (uint64_t)s->hcap - 1;
    uint64_t j = hash_key(key, s->hbits);
    int64_t tomb = -1;
    for (;;) {
        int64_t v = s->hvals[j];
        if (v == EMPTY) {
            if (tomb >= 0) {
                j = (uint64_t)tomb;
            } else {
                s->hused++;
            }
            s->hkeys[j] = key;
            s->hvals[j] = val;
            s->hlive++;
            if (s->hused * 4 >= s->hcap * 3)
                map_rehash(s, s->hbits + 1);
            return;
        }
        if (v == TOMB) {
            if (tomb < 0)
                tomb = (int64_t)j;
        } else if (s->hkeys[j] == key) {
            s->hvals[j] = val;
            return;
        }
        j = (j + 1) & mask;
    }
}

/* del index[key] only when it currently points at node */
static void map_del_if(Seq *s, int64_t key, int64_t node)
{
    int64_t slot = map_find(s, key);
    if (s->hvals[slot] == node) {
        s->hvals[slot] = TOMB;
        s->hlive--;
    }
}

/* index.setdefault(key, node): existing value, or -1 after inserting */
static int64_t map_setdefault(Seq *s, int64_t key, int64_t node)
{
    int64_t slot = map_find(s, key);
    if (s->hvals[slot] >= 0)
        return s->hvals[slot];
    map_put(s, key, node);
    return -1;
}

/* ---------------- node / rule storage ------------------------------ */

static int grow_nodes(Seq *s)
{
    int64_t cap = s->cap_nodes * 2;
    int64_t *c = realloc(s->code, cap * sizeof(int64_t));
    int64_t *p = realloc(s->prv, cap * sizeof(int64_t));
    int64_t *n = realloc(s->nxt, cap * sizeof(int64_t));
    if (c)
        s->code = c;
    if (p)
        s->prv = p;
    if (n)
        s->nxt = n;
    if (!c || !p || !n) {
        s->oom = 1;
        return -1;
    }
    s->cap_nodes = cap;
    return 0;
}

static int64_t new_node(Seq *s, int64_t code, int64_t prv, int64_t nxt)
{
    int64_t i;
    if (s->n_nodes == s->cap_nodes && grow_nodes(s) < 0)
        return -1;
    i = s->n_nodes++;
    s->code[i] = code;
    s->prv[i] = prv;
    s->nxt[i] = nxt;
    return i;
}

static int grow_rules(Seq *s)
{
    int64_t cap = s->cap_rules * 2;
    int64_t *g = realloc(s->guards, cap * sizeof(int64_t));
    int64_t *r = realloc(s->refcount, cap * sizeof(int64_t));
    if (g)
        s->guards = g;
    if (r)
        s->refcount = r;
    if (!g || !r) {
        s->oom = 1;
        return -1;
    }
    s->cap_rules = cap;
    return 0;
}

/* ---------------- sequitur invariants ------------------------------ */

static void substitute(Seq *s, int64_t i, int64_t serial);
static void process_match(Seq *s, int64_t i, int64_t match);

/* full-bookkeeping link used on slow paths */
static void join_nodes(Seq *s, int64_t left, int64_t right)
{
    int64_t *code = s->code, *prv = s->prv, *nxt = s->nxt;
    if (nxt[left] != -1) {
        int64_t lc = code[left];
        int64_t ln = nxt[left];
        int64_t rc = code[right];
        if (lc >= 0 && code[ln] >= 0)
            map_del_if(s, (lc << KSHIFT) | code[ln], left);
        if (rc >= 0) {
            int64_t rp = prv[right], rn = nxt[right];
            if (rp != -1 && rn != -1 && code[rp] == rc && code[rn] == rc)
                map_put(s, (rc << KSHIFT) | rc, right);
        }
        if (lc >= 0) {
            int64_t lp = prv[left];
            if (lp != -1 && ln != -1 && code[ln] == lc && code[lp] == lc)
                map_put(s, (lc << KSHIFT) | lc, lp);
        }
    }
    nxt[left] = right;
    prv[right] = left;
}

static int check_digram(Seq *s, int64_t i)
{
    int64_t *code = s->code, *nxt = s->nxt;
    int64_t ci = code[i], n, key, found;
    if (ci < 0)
        return 0;
    n = nxt[i];
    if (n == -1 || code[n] < 0)
        return 0;
    key = (ci << KSHIFT) | code[n];
    found = map_setdefault(s, key, i);
    if (found < 0 || found == i)
        return 0;
    if (nxt[found] != i)
        process_match(s, i, found);
    return 1;
}

static void expand_rule(Seq *s, int64_t i)
{
    int64_t *code = s->code, *prv = s->prv, *nxt = s->nxt;
    int64_t serial = code[i] >> 1;
    int64_t guard = s->guards[serial];
    int64_t left = prv[i], right = nxt[i];
    int64_t first = nxt[guard], last = prv[guard];
    int64_t ln;
    if (right != -1 && code[right] >= 0)
        map_del_if(s, (code[i] << KSHIFT) | code[right], i);
    join_nodes(s, left, first);
    join_nodes(s, last, right);
    ln = nxt[last];
    if (code[ln] >= 0)
        map_put(s, (code[last] << KSHIFT) | code[ln], last);
    s->guards[serial] = -1;
    s->refcount[serial] = 0;
}

static void substitute(Seq *s, int64_t i, int64_t serial)
{
    int64_t *code = s->code, *prv = s->prv, *nxt = s->nxt;
    int64_t p = prv[i];
    int64_t node;
    int k;
    /* unlink the two digram symbols: (nxt[p], nxt[nxt[p]]) */
    for (k = 0; k < 2; k++) {
        int64_t d = nxt[p];
        int64_t dn = nxt[d];
        int64_t pc = code[p];
        int64_t dc = code[dn];
        int64_t dc2;
        /* join(p, dn) bookkeeping */
        if (pc >= 0 && code[d] >= 0)
            map_del_if(s, (pc << KSHIFT) | code[d], p);
        if (dc >= 0) {
            int64_t dp = prv[dn], dnn = nxt[dn];
            if (dp != -1 && dnn != -1 && code[dp] == dc && code[dnn] == dc)
                map_put(s, (dc << KSHIFT) | dc, dn);
        }
        if (pc >= 0) {
            int64_t pp = prv[p];
            if (pp != -1 && code[d] == pc && code[pp] == pc)
                map_put(s, (pc << KSHIFT) | pc, pp);
        }
        nxt[p] = dn;
        prv[dn] = p;
        /* drop digram (d, old next) + refcount */
        dc2 = code[d];
        if (dc2 >= 0) {
            if (dn != -1 && code[dn] >= 0)
                map_del_if(s, (dc2 << KSHIFT) | code[dn], d);
            if (dc2 & 1)
                s->refcount[dc2 >> 1]--;
        }
    }
    node = new_node(s, 2 * serial + 1, -1, -1);
    if (node < 0)
        return;
    code = s->code;
    prv = s->prv;
    nxt = s->nxt;
    s->refcount[serial]++;
    join_nodes(s, node, nxt[p]);
    join_nodes(s, p, node);
    if (!check_digram(s, p))
        check_digram(s, nxt[p]);
}

static void process_match(Seq *s, int64_t i, int64_t match)
{
    int64_t *code = s->code, *prv = s->prv, *nxt = s->nxt;
    int64_t serial, first, fc;
    if (code[prv[match]] < 0 && code[nxt[nxt[match]]] < 0) {
        serial = -code[prv[match]] - 1;
        substitute(s, i, serial);
    } else {
        int64_t guard, a, b, ca, cb;
        if (s->n_rules == s->cap_rules && grow_rules(s) < 0)
            return;
        serial = s->n_rules++;
        ca = code[i];
        cb = code[nxt[i]];
        guard = new_node(s, -serial - 1, -1, -1);
        a = new_node(s, ca, guard, -1);
        b = new_node(s, cb, a, -1);
        if (guard < 0 || a < 0 || b < 0)
            return;
        code = s->code;
        prv = s->prv;
        nxt = s->nxt;
        nxt[guard] = a;
        nxt[a] = b;
        nxt[b] = guard;
        prv[guard] = b;
        s->guards[serial] = guard;
        s->refcount[serial] = 0;
        if (ca & 1)
            s->refcount[ca >> 1]++;
        if (cb & 1)
            s->refcount[cb >> 1]++;
        substitute(s, match, serial);
        substitute(s, i, serial);
        map_put(s, (ca << KSHIFT) | cb, a);
    }
    first = s->nxt[s->guards[serial]];
    fc = s->code[first];
    if (fc >= 0 && (fc & 1) && s->refcount[fc >> 1] == 1)
        expand_rule(s, first);
}

/* ---------------- public API ---------------------------------------- */

Seq *seq_new(void)
{
    Seq *s = calloc(1, sizeof(Seq));
    int64_t i;
    if (!s)
        return NULL;
    s->cap_nodes = 1024;
    s->code = malloc(s->cap_nodes * sizeof(int64_t));
    s->prv = malloc(s->cap_nodes * sizeof(int64_t));
    s->nxt = malloc(s->cap_nodes * sizeof(int64_t));
    s->cap_rules = 64;
    s->guards = malloc(s->cap_rules * sizeof(int64_t));
    s->refcount = malloc(s->cap_rules * sizeof(int64_t));
    s->hbits = 10;
    s->hcap = (int64_t)1 << s->hbits;
    s->hkeys = malloc(s->hcap * sizeof(int64_t));
    s->hvals = malloc(s->hcap * sizeof(int64_t));
    if (!s->code || !s->prv || !s->nxt || !s->guards || !s->refcount
        || !s->hkeys || !s->hvals) {
        s->oom = 1;
        return s; /* caller checks seq_oom */
    }
    for (i = 0; i < s->hcap; i++)
        s->hvals[i] = EMPTY;
    /* node 0 = guard of the start rule (serial 0) */
    s->code[0] = -1;
    s->prv[0] = 0;
    s->nxt[0] = 0;
    s->n_nodes = 1;
    s->guards[0] = 0;
    s->refcount[0] = 0;
    s->n_rules = 1;
    return s;
}

void seq_free(Seq *s)
{
    if (!s)
        return;
    free(s->code);
    free(s->prv);
    free(s->nxt);
    free(s->guards);
    free(s->refcount);
    free(s->hkeys);
    free(s->hvals);
    free(s);
}

int seq_oom(const Seq *s)
{
    return s->oom;
}

/* push pre-doubled terminal codes (2 * token_id each) */
int seq_push(Seq *s, const int64_t *codes, int64_t n)
{
    int64_t t;
    int64_t guard = s->guards[0];
    for (t = 0; t < n; t++) {
        int64_t c = codes[t];
        int64_t last = s->prv[guard];
        int64_t node = new_node(s, c, last, guard);
        int64_t lc, key, found;
        if (node < 0)
            return -1;
        s->nxt[last] = node;
        s->prv[guard] = node;
        lc = s->code[last];
        if (lc < 0)
            continue;
        key = (lc << KSHIFT) | c;
        found = map_setdefault(s, key, last);
        if (found >= 0 && found != last && s->nxt[found] != last)
            process_match(s, last, found);
        if (s->oom)
            return -1;
    }
    return 0;
}

int64_t seq_n_nodes(const Seq *s) { return s->n_nodes; }
int64_t seq_n_rules(const Seq *s) { return s->n_rules; }
const int64_t *seq_code_ptr(const Seq *s) { return s->code; }
const int64_t *seq_prv_ptr(const Seq *s) { return s->prv; }
const int64_t *seq_nxt_ptr(const Seq *s) { return s->nxt; }
const int64_t *seq_guards_ptr(const Seq *s) { return s->guards; }
const int64_t *seq_refcount_ptr(const Seq *s) { return s->refcount; }

/* ---------------- freeze prep --------------------------------------
 * Computes everything the immutable Grammar needs that is pure integer
 * work: BFS rule renumbering (matching the reference freeze order),
 * flattened rule bodies, rule levels, expansion lengths, and sorted
 * occurrence start offsets.  Python only materializes objects.
 */

typedef struct {
    int64_t n_rules;
    int64_t *body_flat;  /* terminal t -> 2t, rule pid p -> 2p+1 */
    int64_t *body_off;   /* n_rules + 1 */
    int64_t *levels;     /* n_rules */
    int64_t *lengths;    /* n_rules: expansion length */
    int64_t *starts_flat;/* sorted occurrence starts, concatenated */
    int64_t *starts_off; /* n_rules + 1 */
    int oom;
} Frozen;

static int cmp_i64(const void *a, const void *b)
{
    int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

void seq_frozen_free(Frozen *f)
{
    if (!f)
        return;
    free(f->body_flat);
    free(f->body_off);
    free(f->levels);
    free(f->lengths);
    free(f->starts_flat);
    free(f->starts_off);
    free(f);
}

Frozen *seq_freeze_prep(const Seq *s, int64_t n_tokens)
{
    Frozen *f = calloc(1, sizeof(Frozen));
    int64_t *id_map = NULL, *queue = NULL, *stack = NULL, *order = NULL;
    int64_t *counts = NULL, *fill = NULL;
    int64_t n_serials = s->n_rules;
    int64_t n_rules = 0, total_body = 0, total_starts = 0;
    int64_t qi, pid, i;

    if (!f)
        return NULL;
    id_map = malloc(n_serials * sizeof(int64_t));
    queue = malloc(n_serials * sizeof(int64_t));
    if (!id_map || !queue)
        goto oom;
    for (i = 0; i < n_serials; i++)
        id_map[i] = -1;

    /* BFS over live rules from serial 0, assigning ids in first-seen
     * order; also measure total body size. */
    id_map[0] = 0;
    queue[0] = 0;
    n_rules = 1;
    for (qi = 0; qi < n_rules; qi++) {
        int64_t guard = s->guards[queue[qi]];
        int64_t node = s->nxt[guard];
        while (s->code[node] >= 0) {
            int64_t c = s->code[node];
            total_body++;
            if (c & 1) {
                int64_t serial = c >> 1;
                if (id_map[serial] < 0) {
                    id_map[serial] = n_rules;
                    queue[n_rules++] = serial;
                }
            }
            node = s->nxt[node];
        }
    }

    f->n_rules = n_rules;
    f->body_flat = malloc((total_body ? total_body : 1) * sizeof(int64_t));
    f->body_off = malloc((n_rules + 1) * sizeof(int64_t));
    f->levels = calloc(n_rules, sizeof(int64_t));
    f->lengths = calloc(n_rules, sizeof(int64_t));
    f->starts_off = malloc((n_rules + 1) * sizeof(int64_t));
    if (!f->body_flat || !f->body_off || !f->levels || !f->lengths
        || !f->starts_off)
        goto oom;

    /* flatten bodies with serials remapped to public ids */
    total_body = 0;
    for (pid = 0; pid < n_rules; pid++) {
        int64_t guard = s->guards[queue[pid]];
        int64_t node = s->nxt[guard];
        f->body_off[pid] = total_body;
        while (s->code[node] >= 0) {
            int64_t c = s->code[node];
            f->body_flat[total_body++] =
                (c & 1) ? 2 * id_map[c >> 1] + 1 : c;
            node = s->nxt[node];
        }
    }
    f->body_off[n_rules] = total_body;

    /* levels: iterative post-order DP */
    stack = malloc((total_body + n_rules + 1) * sizeof(int64_t));
    if (!stack)
        goto oom;
    for (pid = 0; pid < n_rules; pid++) {
        int64_t sp = 0;
        if (f->levels[pid])
            continue;
        stack[sp++] = pid;
        while (sp > 0) {
            int64_t top = stack[sp - 1];
            int64_t best = 0, ready = 1, k;
            if (f->levels[top]) {
                sp--;
                continue;
            }
            for (k = f->body_off[top]; k < f->body_off[top + 1]; k++) {
                int64_t c = f->body_flat[k];
                if (c & 1) {
                    int64_t lv = f->levels[c >> 1];
                    if (!lv) {
                        stack[sp++] = c >> 1;
                        ready = 0;
                    } else if (lv > best) {
                        best = lv;
                    }
                }
            }
            if (ready) {
                f->levels[top] = best + 1;
                sp--;
            }
        }
    }
    free(stack);
    stack = NULL;

    /* order rules by ascending level (stable counting sort) */
    {
        int64_t max_level = 0, *buckets, b;
        for (pid = 0; pid < n_rules; pid++)
            if (f->levels[pid] > max_level)
                max_level = f->levels[pid];
        buckets = calloc(max_level + 2, sizeof(int64_t));
        order = malloc(n_rules * sizeof(int64_t));
        if (!buckets || !order) {
            free(buckets);
            goto oom;
        }
        for (pid = 0; pid < n_rules; pid++)
            buckets[f->levels[pid] + 1]++;
        for (b = 1; b <= max_level + 1; b++)
            buckets[b] += buckets[b - 1];
        for (pid = 0; pid < n_rules; pid++)
            order[buckets[f->levels[pid]]++] = pid;
        free(buckets);
    }

    /* expansion lengths, children before parents */
    for (i = 0; i < n_rules; i++) {
        int64_t total = 0, k;
        pid = order[i];
        for (k = f->body_off[pid]; k < f->body_off[pid + 1]; k++) {
            int64_t c = f->body_flat[k];
            total += (c & 1) ? f->lengths[c >> 1] : 1;
        }
        f->lengths[pid] = total;
    }

    /* occurrence counts: parents propagate to children, descending
     * level */
    counts = calloc(n_rules, sizeof(int64_t));
    if (!counts)
        goto oom;
    if (n_tokens > 0)
        counts[0] = 1;
    for (i = n_rules - 1; i >= 0; i--) {
        int64_t k;
        pid = order[i];
        for (k = f->body_off[pid]; k < f->body_off[pid + 1]; k++) {
            int64_t c = f->body_flat[k];
            if (c & 1)
                counts[c >> 1] += counts[pid];
        }
    }
    for (pid = 0; pid < n_rules; pid++)
        total_starts += counts[pid];
    f->starts_off[0] = 0;
    for (pid = 0; pid < n_rules; pid++)
        f->starts_off[pid + 1] = f->starts_off[pid] + counts[pid];
    f->starts_flat =
        malloc((total_starts ? total_starts : 1) * sizeof(int64_t));
    fill = calloc(n_rules, sizeof(int64_t));
    if (!f->starts_flat || !fill)
        goto oom;

    /* propagate actual starts, descending level */
    if (n_tokens > 0) {
        f->starts_flat[0] = 0;
        fill[0] = 1;
    }
    for (i = n_rules - 1; i >= 0; i--) {
        int64_t k, off = 0;
        int64_t base, mine_n;
        pid = order[i];
        base = f->starts_off[pid];
        mine_n = fill[pid];
        for (k = f->body_off[pid]; k < f->body_off[pid + 1]; k++) {
            int64_t c = f->body_flat[k];
            if (c & 1) {
                int64_t child = c >> 1;
                int64_t dst = f->starts_off[child] + fill[child];
                int64_t m;
                for (m = 0; m < mine_n; m++)
                    f->starts_flat[dst + m] =
                        f->starts_flat[base + m] + off;
                fill[child] += mine_n;
                off += f->lengths[child];
            } else {
                off += 1;
            }
        }
    }
    free(fill);
    fill = NULL;
    free(counts);
    counts = NULL;

    /* each rule's starts slice, ascending (reference freeze order) */
    for (pid = 0; pid < n_rules; pid++) {
        int64_t lo = f->starts_off[pid], hi = f->starts_off[pid + 1];
        if (hi - lo > 1)
            qsort(f->starts_flat + lo, hi - lo, sizeof(int64_t), cmp_i64);
    }

    free(id_map);
    free(queue);
    free(order);
    return f;

oom:
    free(id_map);
    free(queue);
    free(stack);
    free(order);
    free(counts);
    free(fill);
    if (f)
        f->oom = 1;
    return f;
}

int seq_frozen_oom(const Frozen *f) { return !f || f->oom; }
int64_t seq_frozen_n_rules(const Frozen *f) { return f->n_rules; }
int64_t seq_frozen_body_total(const Frozen *f)
{
    return f->body_off[f->n_rules];
}
int64_t seq_frozen_starts_total(const Frozen *f)
{
    return f->starts_off[f->n_rules];
}
const int64_t *seq_frozen_body_flat(const Frozen *f) { return f->body_flat; }
const int64_t *seq_frozen_body_off(const Frozen *f) { return f->body_off; }
const int64_t *seq_frozen_levels(const Frozen *f) { return f->levels; }
const int64_t *seq_frozen_lengths(const Frozen *f) { return f->lengths; }
const int64_t *seq_frozen_starts_flat(const Frozen *f)
{
    return f->starts_flat;
}
const int64_t *seq_frozen_starts_off(const Frozen *f)
{
    return f->starts_off;
}
