/* The compiled kernels of shadowseg, loaded with ctypes by
   shadowseg._native: the highest-confidence-first sweep (hcf_sweep), the
   per-pixel mixture update and background selection (mixture_update,
   mixture_select), and the six rows of potential tables
   (potential_tables).

   They are the engine's only path. Each replays the float64 arithmetic
   of its reference oracle in tests/oracles.py, operation by operation and
   in the same order, so results come out bit-identical: hcf_sweep follows
   hcf_python, the mixture kernels follow update_mixture and
   select_background, one pixel at a time, and potential_tables the numpy
   stacks of potential_tables. Built with -ffp-contract=off so that no
   multiply-add is fused, and without -ffast-math.

   No kernel calls log: libm's log and numpy's (SIMD on x86-64) round
   differently in the last bit on some inputs. So potential_tables takes
   its scalar logs as arguments, computed by numpy, and leaves the two
   triangular factors of the foreground edge potential for numpy to take
   the per-pixel logs of.

   The HCF queue has two tiers. Sites that no neighbour update has touched
   keep their initial score; they sit in blocks of BLOCK consecutive sites,
   and a small heap holds one (score, site) key per block. Every other
   queued site sits in the frontier, a bucket queue (Dial, CACM 1969):
   a site's bucket comes from the top bits of its score mapped to an
   unsigned integer in the same order, and a bitmap of non-empty buckets
   finds the lowest one with three count-trailing-zeros. Nearly all visits
   come from the frontier, which held at most about 1,500 sites on 320x240
   frames, so a neighbour update relinks a site between two lists instead
   of sifting it through a heap. Nearly every update moves its site to
   another bucket, and keeping the frontier up to date is most of the
   sweep's time, so a move takes no branch on the data: each bucket is a
   circular list through a head node of its own, and the bitmap is zeroed
   at the start and kept exact. When many scores tie, the lowest bucket
   would grow long and its scan quadratic; past BUCKET_CAP sites it moves
   into an indexed heap, where its sites stay until they are visited or
   dropped.

   A site potential that is NaN or infinite would break the strict order
   the queue rests on, so the sweep refuses it before the first visit. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Sites per block of the static tier. */
#define BLOCK 64
/* Site state besides the labels 0 (uncommitted) and 1..3: uncommitted
   and untouched, so keyed by its initial score in the static tier. */
#define FRESH 4
/* Frontier buckets: 2^SPLIT_BITS per power of two, over scores from
   -2^32 to -2^-32; smaller and larger ones share the two end buckets.
   That is 2^BUCKET_BITS buckets, under a bitmap of three levels that
   branch 64 ways. */
#define SPLIT_BITS 8
#define BUCKET_BITS 14
/* score_key(-0x1p32): the exponent bits of 2^32 inverted, then the top
   SPLIT_BITS bits of its zero mantissa inverted */
#define LOWEST_KEY ((uint32_t)(2047 - (1023 + 32)) << SPLIT_BITS | ((1 << SPLIT_BITS) - 1))
/* The most sites the lowest bucket may hold before they move to the heap. */
#define BUCKET_CAP 32
/* Frontier.where of a site in no bucket: in no part of the frontier, or
   in its heap. */
#define NO_BUCKET 0xFFFF
#define IN_HEAP 0xFFFE

/* The queue holds every uncommitted site and every committed site that
   can strictly improve, keyed (score, site), and yields them in that
   order: the order in which hcf_python's lazy-deletion heap pops its
   live entries, one per site. (score, site) is a strict total order, so
   any exact queue yields the same sequence.

   The static tier's key of a block is the smallest (score, site) of its
   fresh sites when it was last computed. Sites only ever leave the fresh
   set, so the key stays a lower bound of the block's fresh keys, and it
   is exact while its own site is fresh. A key whose site has been touched
   is recomputed lazily: only once it is the smallest block key and the
   frontier's top does not come before it. So the smaller of the two tops
   is the smallest key of the whole queue, the one the single heap of
   every site would pop.

   The frontier's buckets are ordered as their scores are, and equal
   scores share a bucket, so the smallest key of the bucketed sites is in
   the lowest non-empty bucket, found there by a scan. The frontier's top
   is the smaller of that and the top of its heap. Where in a bucket's list
   a site sits does not matter, since the scan finds the smallest key
   wherever it is. */

typedef struct {
    double score;
    int64_t site;
} Entry;

typedef struct {
    Entry *heap;
    int64_t *slot;      /* index of each site in heap, -1 when absent */
    int64_t size;
} Queue;

static int before(Entry a, Entry b)
{
    return a.score < b.score || (a.score == b.score && a.site < b.site);
}

static void place(Queue *q, int64_t i, Entry e)
{
    q->heap[i] = e;
    q->slot[e.site] = i;
}

static void sift_up(Queue *q, int64_t i)
{
    Entry e = q->heap[i];
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(e, q->heap[parent]))
            break;
        place(q, i, q->heap[parent]);
        i = parent;
    }
    place(q, i, e);
}

static void sift_down(Queue *q, int64_t i)
{
    Entry e = q->heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= q->size)
            break;
        if (child + 1 < q->size && before(q->heap[child + 1], q->heap[child]))
            child++;
        if (!before(q->heap[child], e))
            break;
        place(q, i, q->heap[child]);
        i = child;
    }
    place(q, i, e);
}

/* Key `site` by `score`, inserting it when absent. */
static void set_score(Queue *q, int64_t site, double score)
{
    Entry e = {score, site};
    int64_t i = q->slot[site];
    if (i < 0) {
        i = q->size++;
        q->heap[i] = e;
        sift_up(q, i);
    } else if (before(e, q->heap[i])) {
        q->heap[i] = e;
        sift_up(q, i);
    } else {
        q->heap[i] = e;
        sift_down(q, i);
    }
}

static void drop(Queue *q, int64_t site)
{
    int64_t i = q->slot[site];
    if (i < 0)
        return;
    q->slot[site] = -1;
    Entry last = q->heap[--q->size];
    if (i < q->size) {
        place(q, i, last);
        sift_up(q, i);
        sift_down(q, q->slot[last.site]);
    }
}

/* The frontier. A site is in at most one of its buckets and its heap; a
   bucketed site's score is kept in the sweep's score array, and the heap's
   slot index is valid only for the heap's own sites. Bucket b is a
   circular list through its head node, link[n + b], which links to itself
   while the bucket is empty; so no insert or unlink tests for an end of a
   list. The bitmap starts zeroed and stays exact: a bit of low is set
   while its bucket is non-empty, a bit of mid while its word of low is
   non-zero, and a bit of top while its word of mid is. */
typedef struct {
    uint32_t next, prev;    /* site or head links within a bucket */
} Link;

typedef struct {
    Link *link;             /* per site, then the head of each bucket */
    uint16_t *where;        /* per site: its bucket, NO_BUCKET or IN_HEAP */
    uint32_t heads;         /* index in link of bucket 0's head: n */
    uint64_t top, *mid, *low;
    Queue heap;
    int64_t spilled;        /* sites moved from a full lowest bucket to the heap */
} Frontier;

static uint64_t bit(uint32_t b)
{
    return UINT64_C(1) << (b & 63);
}

/* The key of a score: the top bits of its IEEE 754 pattern, the sign bit
   flipped for positive doubles and every bit inverted for negative ones,
   so that the order of keys is the order of scores. They are the sign,
   the exponent and the top SPLIT_BITS bits of the mantissa. */
static uint32_t score_key(double score)
{
    uint64_t u;
    score += 0.0;           /* -0.0 becomes +0.0, which before() calls equal */
    memcpy(&u, &score, sizeof u);
    u = u >> 63 ? ~u : u | UINT64_C(1) << 63;
    return (uint32_t)(u >> (52 - SPLIT_BITS));
}

/* The bucket of a score: its key less the key of the lowest bucket,
   clamped to the buckets there are. */
static uint32_t bucket_of(double score)
{
    uint32_t key = score_key(score), b = key - LOWEST_KEY;
    if (b < (1 << BUCKET_BITS))
        return b;
    return key < LOWEST_KEY ? 0 : (1 << BUCKET_BITS) - 1;
}

static inline void bucket_insert(Frontier *fr, uint32_t site, uint32_t b)
{
    uint32_t head = fr->heads + b, next = fr->link[head].next;
    fr->link[site] = (Link){next, head};
    fr->link[next].prev = site;
    fr->link[head].next = site;
    fr->low[b >> 6] |= bit(b);
    fr->mid[b >> 12] |= bit(b >> 6);
    fr->top |= bit(b >> 12);
    fr->where[site] = (uint16_t)b;
}

/* Clear the bit of bucket b when `empty` is 1, then the bit of each word
   left zero. */
static inline void bucket_mark(Frontier *fr, uint32_t b, uint64_t empty)
{
    uint64_t *low = &fr->low[b >> 6], *mid = &fr->mid[b >> 12];
    *low &= ~(empty << (b & 63));
    *mid &= ~((uint64_t)(*low == 0) << (b >> 6 & 63));
    fr->top &= ~((uint64_t)(*mid == 0) << (b >> 12 & 63));
}

static inline void bucket_remove(Frontier *fr, uint32_t site)
{
    Link l = fr->link[site];
    fr->link[l.next].prev = l.prev;
    fr->link[l.prev].next = l.next;
    /* both its links name the head when it was alone in its bucket */
    bucket_mark(fr, fr->where[site], l.prev == l.next);
    fr->where[site] = NO_BUCKET;
}

/* The lowest non-empty bucket, or -1. */
static int64_t lowest_bucket(const Frontier *fr)
{
    if (fr->top == 0)
        return -1;
    int64_t m = __builtin_ctzll(fr->top);
    int64_t l = m * 64 + __builtin_ctzll(fr->mid[m]);
    return l * 64 + __builtin_ctzll(fr->low[l]);
}

/* Key the touched site `site` by `s`, inserting it when absent. */
static inline void frontier_set(Frontier *fr, double *score, uint32_t site, double s)
{
    uint32_t old = fr->where[site];
    if (old == IN_HEAP) {
        set_score(&fr->heap, site, s);
        return;
    }
    uint32_t b = bucket_of(s);
    if (old != b) {
        if (old != NO_BUCKET)
            bucket_remove(fr, site);
        bucket_insert(fr, site, b);
    }
    score[site] = s;
}

static inline void frontier_drop(Frontier *fr, uint32_t site)
{
    uint32_t where = fr->where[site];
    if (where == IN_HEAP) {
        drop(&fr->heap, site);
        fr->where[site] = NO_BUCKET;
    } else if (where != NO_BUCKET) {
        bucket_remove(fr, site);
    }
}

/* The smallest (score, site) of the frontier; its site is -1 when the
   frontier is empty. */
static Entry frontier_top(Frontier *fr, const double *score)
{
    for (;;) {
        Entry top = fr->heap.size > 0 ? fr->heap.heap[0] : (Entry){0.0, -1};
        int64_t b = lowest_bucket(fr);
        if (b < 0)
            return top;
        uint32_t head = fr->heads + (uint32_t)b, z = fr->link[head].next;
        Entry best = {score[z], z};
        int held = 1;
        for (z = fr->link[z].next; z != head && held <= BUCKET_CAP; z = fr->link[z].next, held++) {
            Entry e = {score[z], z};
            if (before(e, best))
                best = e;
        }
        if (held <= BUCKET_CAP)
            return top.site >= 0 && before(top, best) ? top : best;
        /* too many ties to scan at every visit: the bucket moves to the heap */
        for (z = fr->link[head].next; z != head; z = fr->link[z].next, fr->spilled++) {
            fr->where[z] = IN_HEAP;
            fr->heap.slot[z] = -1;
            set_score(&fr->heap, z, score[z]);
        }
        fr->link[head] = (Link){head, head};
        bucket_mark(fr, (uint32_t)b, 1);
    }
}

/* The static tier: a plain binary heap of block keys. Only its top is
   ever rekeyed or removed, so it needs no index. */
static void block_sift_down(Entry *heap, int64_t size, int64_t i)
{
    Entry e = heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && before(heap[child + 1], heap[child]))
            child++;
        if (!before(heap[child], e))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = e;
}

/* The smallest (score, site) key of the fresh sites of the block starting
   at `first`; its site is -1 when none is left. */
static Entry block_key(const double *score, const uint8_t *state, int64_t first, int64_t n)
{
    Entry key = {0.0, -1};
    int64_t end = first + BLOCK < n ? first + BLOCK : n;
    for (int64_t y = first; y < end; y++)
        if (state[y] == FRESH && (key.site < 0 || score[y] < key.score))
            key = (Entry){score[y], y};
    return key;
}

/* Label a height x width grid of fewer than 2^31 sites.

   u1, u2    (3, height, width) data potential tables, label-major
   bias      3 weighted label biases, lambda1 * bias; a site's potential
             with no committed neighbour is (u1 + u2) + bias
   offsets   8 (drow, dcol) pairs, the neighbour order of hcf_python
   weights   8 clique weights, lambda2 / squared distance, in that order
   labels    out: height * width labels in {1, 2, 3}
   counts    out: visits, commits, relabels, and the sites the frontier
             moved from a full lowest bucket to its heap
   kinds, energies
             out: per commit (kind 0) or relabel (kind 1), the running
             energy after it; only the first `capacity` are written

   Returns the number of commits and relabels, which may exceed
   `capacity`; -1 when memory runs out, -2 when a site potential is NaN or
   infinite. */
int64_t hcf_sweep(const double *u1, const double *u2, const double *bias,
                  int64_t height, int64_t width,
                  const int64_t *offsets, const double *weights,
                  int64_t *labels, int64_t *counts,
                  uint8_t *kinds, double *energies, int64_t capacity)
{
    int64_t n = height * width, n_blocks = (n + BLOCK - 1) / BLOCK;
    int64_t visits = 0, commits = 0, relabels = 0, fresh = n, result = -1;
    double running = 0.0;

    /* + 1: malloc(0) may return NULL on an empty grid. score holds a
       site's initial score while it is fresh, its frontier score once it
       is bucketed. */
    double *f = malloc((3 * n + 1) * sizeof(double));
    double *score = malloc((n + 1) * sizeof(double));
    uint8_t *state = malloc(n + 1);
    Entry *blocks = malloc((n_blocks + 1) * sizeof(Entry));
    Frontier fr = {malloc((n + (1 << BUCKET_BITS)) * sizeof(Link)),
                   malloc((n + 1) * sizeof(uint16_t)), (uint32_t)n, 0,
                   calloc((size_t)1 << (BUCKET_BITS - 12), sizeof(uint64_t)),
                   calloc((size_t)1 << (BUCKET_BITS - 6), sizeof(uint64_t)),
                   {malloc((n + 1) * sizeof(Entry)), malloc((n + 1) * sizeof(int64_t)), 0}, 0};
    if (f == NULL || score == NULL || state == NULL || blocks == NULL
        || fr.link == NULL || fr.where == NULL || fr.mid == NULL || fr.low == NULL
        || fr.heap.heap == NULL || fr.heap.slot == NULL)
        goto done;
    for (uint32_t head = fr.heads; head < fr.heads + (1 << BUCKET_BITS); head++)
        fr.link[head] = (Link){head, head};

    int finite = 1;
    for (int64_t y = 0; y < n; y++) {
        double a = (u1[y] + u2[y]) + bias[0];
        double b = (u1[n + y] + u2[n + y]) + bias[1];
        double c = (u1[2 * n + y] + u2[2 * n + y]) + bias[2];
        finite &= isfinite(a) & isfinite(b) & isfinite(c);
        f[3 * y] = a;
        f[3 * y + 1] = b;
        f[3 * y + 2] = c;
        state[y] = FRESH;
        /* smallest minus second smallest, as np.partition gives them */
        double lo = a, hi = b, mid;
        if (b < a) {
            lo = b;
            hi = a;
        }
        if (c < lo) {
            mid = lo;
            lo = c;
        } else {
            mid = c < hi ? c : hi;
        }
        score[y] = lo - mid;
    }
    if (!finite) {
        result = -2;
        goto done;
    }
    int64_t n_keyed = n_blocks;
    for (int64_t b = 0; b < n_blocks; b++)
        blocks[b] = block_key(score, state, b * BLOCK, n);
    for (int64_t i = n_blocks / 2 - 1; i >= 0; i--)
        block_sift_down(blocks, n_keyed, i);

    /* a site's neighbours as offsets in the flat grid, for interior sites */
    int64_t step[8];
    for (int k = 0; k < 8; k++)
        step[k] = offsets[2 * k] * width + offsets[2 * k + 1];

    for (;;) {
        Entry top = frontier_top(&fr, score);
        int64_t y = -1;
        /* the static tier's top when it comes first, after rekeying the
           blocks whose key names a touched site or dropping those with no
           fresh site left; once every site has been touched, the stale
           block keys left are never rescanned */
        while (fresh > 0 && (top.site < 0 || !before(top, blocks[0]))) {
            if (state[blocks[0].site] == FRESH) {
                y = blocks[0].site;
                break;
            }
            Entry key = block_key(score, state, blocks[0].site - blocks[0].site % BLOCK, n);
            if (key.site < 0)
                key = blocks[--n_keyed];
            blocks[0] = key;
            block_sift_down(blocks, n_keyed, 0);
        }
        if (y >= 0) {
            /* it leaves the static tier, in neither part of the frontier */
            state[y] = 0;
            fresh--;
            fr.where[y] = NO_BUCKET;
        } else if (top.site >= 0) {
            y = top.site;
            frontier_drop(&fr, (uint32_t)y);
        } else {
            break;
        }
        visits++;
        double *fy = f + 3 * y;
        uint8_t best = 1;
        double best_f = fy[0];
        if (fy[1] < best_f) {
            best = 2;
            best_f = fy[1];
        }
        if (fy[2] < best_f) {
            best = 3;
            best_f = fy[2];
        }
        uint8_t old = state[y];
        uint8_t kind;
        if (old == 0) {
            state[y] = best;
            commits++;
            running += best_f;
            kind = 0;
        } else {
            if (best_f >= fy[old - 1])
                continue;
            state[y] = best;
            relabels++;
            running += best_f - fy[old - 1];
            kind = 1;
        }
        int64_t event = commits + relabels - 1;
        if (event < capacity) {
            kinds[event] = kind;
            energies[event] = running;
        }

        int64_t r = y / width, c = y - r * width;
        int interior = r > 0 && r < height - 1 && c > 0 && c < width - 1;
        for (int k = 0; k < 8; k++) {
            int64_t z;
            if (interior) {
                z = y + step[k];
            } else {
                int64_t rr = r + offsets[2 * k], cc = c + offsets[2 * k + 1];
                if (rr < 0 || rr >= height || cc < 0 || cc >= width)
                    continue;
                z = rr * width + cc;
            }
            double *g = f + 3 * z;
            double w = weights[k];
            if (old == 0) {
                g[0] += w;
                g[1] += w;
                g[2] += w;
                g[best - 1] -= w;
            } else {
                g[best - 1] -= w;
                g[old - 1] += w;
            }
            double g0 = g[0], g1 = g[1], g2 = g[2];
            uint8_t zl = state[z];
            if (zl == FRESH) {
                /* it leaves the static tier, so a block key naming it goes
                   stale, and enters the frontier below */
                state[z] = zl = 0;
                fresh--;
                fr.where[z] = NO_BUCKET;
            }
            if (zl == 0) {
                /* Python's min and max: the first of equal values wins */
                double lo = g0, hi = g0;
                if (g1 < lo)
                    lo = g1;
                if (g2 < lo)
                    lo = g2;
                if (g1 > hi)
                    hi = g1;
                if (g2 > hi)
                    hi = g2;
                double second = g0 + g1 + g2 - lo - hi;
                frontier_set(&fr, score, (uint32_t)z, lo - second);
            } else {
                double cur = g[zl - 1], alt;
                if (zl == 1)
                    alt = g2 < g1 ? g2 : g1;
                else if (zl == 2)
                    alt = g2 < g0 ? g2 : g0;
                else
                    alt = g1 < g0 ? g1 : g0;
                if (alt - cur < 0.0)
                    frontier_set(&fr, score, (uint32_t)z, alt - cur);
                else
                    frontier_drop(&fr, (uint32_t)z);
            }
        }
    }

    for (int64_t y = 0; y < n; y++)
        labels[y] = state[y];
    counts[0] = visits;
    counts[1] = commits;
    counts[2] = relabels;
    counts[3] = fr.spilled;
    result = commits + relabels;

done:
    free(f);
    free(score);
    free(state);
    free(blocks);
    free(fr.link);
    free(fr.where);
    free(fr.mid);
    free(fr.low);
    free(fr.heap.heap);
    free(fr.heap.slot);
    return result;
}

/* One recursive update of every pixel's mixture, in place: the oracle
   update_mixture pixel by pixel.

   weights, means, variances
             (k, n) components, lane-major, updated in place
   frame     n observations
   alpha     learning rate; the other four are the constants of
             shadowseg.background, passed so that they live in one place

   The observation matches the component of largest weight/stddev, first
   index on ties, among those within match_sigmas standard deviations.
   A match pulls that component toward the observation; with none, the
   first component of lowest weight is replaced. The weights are then
   renormalized by their sum taken from lane 0 upward. */
void mixture_update(double *weights, double *means, double *variances,
                    const double *frame, int64_t k, int64_t n, double alpha,
                    double match_sigmas, double init_weight, double init_variance,
                    double variance_floor)
{
    double keep = 1.0 - alpha;
    for (int64_t i = 0; i < n; i++) {
        double g = frame[i];
        int64_t match = -1;
        double match_rank = 0.0;
        for (int64_t j = 0; j < k; j++) {
            int64_t at = j * n + i;
            double sigma = sqrt(variances[at]);
            double rank = weights[at] / sigma;
            if (fabs(g - means[at]) <= match_sigmas * sigma
                && (match < 0 || rank > match_rank)) {
                match = j;
                match_rank = rank;
            }
        }
        if (match >= 0) {
            int64_t at = match * n + i;
            double d = g - means[at];
            double v = keep * variances[at] + alpha * d * d;
            weights[at] = keep * weights[at] + alpha;
            means[at] = keep * means[at] + alpha * g;
            /* the oracle's max(v, floor), which keeps a NaN */
            variances[at] = v < variance_floor ? variance_floor : v;
        } else {
            int64_t low = 0;
            for (int64_t j = 1; j < k; j++)
                if (weights[j * n + i] < weights[low * n + i])
                    low = j;
            int64_t at = low * n + i;
            weights[at] = init_weight;
            means[at] = g;
            variances[at] = init_variance;
        }
        double total = weights[i];
        for (int64_t j = 1; j < k; j++)
            total += weights[j * n + i];
        for (int64_t j = 0; j < k; j++)
            weights[j * n + i] /= total;
    }
}

/* Per pixel, the mean and variance of the component of largest
   weight/stddev, first index on ties: the oracle select_background.
   Inputs as for mixture_update; mean and variance are n outputs. */
void mixture_select(const double *weights, const double *means, const double *variances,
                    int64_t k, int64_t n, double *mean, double *variance)
{
    for (int64_t i = 0; i < n; i++) {
        int64_t best = 0;
        double best_rank = weights[i] / sqrt(variances[i]);
        for (int64_t j = 1; j < k; j++) {
            double rank = weights[j * n + i] / sqrt(variances[j * n + i]);
            if (rank > best_rank) {
                best = j;
                best_rank = rank;
            }
        }
        mean[i] = means[best * n + i];
        variance[i] = variances[best * n + i];
    }
}

/* The constants of one Gaussian label, background (gain 1, offset 0) or
   shadow, computed in Python with the numpy operations of the oracle:
   the intensity variance is var = gain * gain * pooled, and each edge
   component's 2 * pooled. Six doubles, as the caller lays them out. */
typedef struct {
    double gain, offset;
    double log_norm;        /* 0.5 * (LOG_2PI + log var) */
    double two_var;         /* 2 * var */
    double edge_log_norm;   /* LOG_2PI + 2 log gain + 0.5 log(edge_var * edge_var) */
    double edge_scale;      /* (2 * gain) * gain */
} Gaussian;

/* The intensity and edge potential tables of n pixels: the oracle
   potential_tables, one pixel at a time.

   frame, edge_h, edge_v, bg_mean, mean_h, mean_v
             n values each
   gauss     the background's and the shadow's constants
   edge_var  each edge component's variance, 2 * pooled
   fg_log    the foreground intensity potential, log y_max + 0.0
   inv_y_max, y_max_sq, floor
             1 / y_max, y_max * y_max and the density floor over y_max_sq
   u1, u2    out: (3, n) tables, label-major
   fv        out: the vertical triangular factor, n values

   The foreground edge row u2[2] gets the horizontal triangular factor,
   not its potential: the caller takes -log of it and subtracts log fv. */
void potential_tables(const double *frame, const double *edge_h, const double *edge_v,
                      const double *bg_mean, const double *mean_h, const double *mean_v,
                      int64_t n, const Gaussian *gauss, double edge_var, double fg_log,
                      double inv_y_max, double y_max_sq, double floor,
                      double *u1, double *u2, double *fv)
{
    for (int64_t i = 0; i < n; i++) {
        double g = frame[i], m = bg_mean[i];
        double eh = edge_h[i], ev = edge_v[i], mh = mean_h[i], mv = mean_v[i];
        for (int l = 0; l < 2; l++) {
            const Gaussian *p = &gauss[l];
            double dev = g - (p->gain * m + p->offset);
            u1[l * n + i] = p->log_norm + dev * dev / p->two_var;
            double dev_h = eh - p->gain * mh, dev_v = ev - p->gain * mv;
            double quad = dev_h * dev_h / edge_var + dev_v * dev_v / edge_var;
            u2[l * n + i] = p->edge_log_norm + quad / p->edge_scale;
        }
        u1[2 * n + i] = fg_log;
        /* the oracle's np.maximum(t, floor), which keeps a NaN */
        double th = inv_y_max - fabs(eh) / y_max_sq;
        double tv = inv_y_max - fabs(ev) / y_max_sq;
        u2[2 * n + i] = th < floor ? floor : th;
        fv[i] = tv < floor ? floor : tv;
    }
}
