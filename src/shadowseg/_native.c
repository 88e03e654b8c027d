/* The compiled kernels of shadowseg, loaded with ctypes by
   shadowseg._native: the highest-confidence-first sweep (hcf_sweep), the
   per-pixel mixture update and background selection (mixture_update,
   mixture_select), the six rows of potential tables (potential_tables),
   and the two edge grids of a frame or of the background means
   (central_differences).

   They are the engine's only path. Each replays the float64 arithmetic
   of its reference oracle in tests/oracles.py, operation by operation and
   in the same order, so results come out bit-identical: hcf_sweep follows
   hcf_python, the mixture kernels follow update_mixture and
   select_background, one pixel at a time, potential_tables the numpy
   stacks of potential_tables, and central_differences the numpy slicing
   of frame_edges. Built with -ffp-contract=off so that no multiply-add is
   fused, and without -ffast-math.

   No kernel calls log: libm's log and numpy's (SIMD on x86-64) round
   differently in the last bit on some inputs. So potential_tables takes
   its scalar logs as arguments, computed by numpy, and leaves the two
   triangular factors of the foreground edge potential for numpy to take
   the per-pixel logs of.

   mixture_update, mixture_select and potential_tables are one plain
   loop each, and central_differences two per row, which the compiler
   vectorizes under #pragma omp simd (-fopenmp-simd: no OpenMP runtime,
   no threads). Vector sqrt, divide, multiply, add and subtract round
   exactly as their scalar forms do, and each lane runs the loop's
   operations in its order, so the bytes are those of the scalar loop; a
   compiler that ignores the pragma runs that loop as it stands.
   tests/test_simd_kernels.py checks that GCC still vectorizes all five.
   mixture_update alone has an AVX2 clone, picked at load time, and
   relaxes trapping math (see there).

   hcf_sweep keys an uncommitted site by one formula, gap, at the start
   and after every neighbour update: its lowest potential minus its
   middle one, exactly. GCC compiles gap with no jump and unrolls the
   loop over the 8 neighbours completely (#pragma GCC unroll 8);
   tests/test_simd_kernels.py checks both in GCC's output. Each visit
   commits or relabels its site, so it counts only the relabels; every
   site commits exactly once. A site's three potentials and its key
   share one 32-byte record, aligned in the caller's buffer, so that a
   neighbour update, which reads and writes all four, touches one cache
   line. The sweep owns the MRF's 8-neighbourhood, NEIGHBOUR with its
   squared distances D2, and forms each clique weight lambda2 / d2, the
   quotient hcf_python forms. It keeps each site's state in the caller's
   uint8 labels, which hold the final labels when it returns.

   hcf_sweep also returns what the energy of its labels is summed from:
   on its last pass over the labels it counts each label, forms the MRF
   pair term, 1 / d2 summed over the disagreeing neighbour pairs in the
   oracle's order, and gathers each site's potentials and bias of its
   label into rows that numpy sums (energy.energy_of_terms) as the oracle
   total_energy of tests/oracles.py sums its gathers.

   The HCF queue has two tiers. Sites that no neighbour update has touched
   keep their initial score; they sit in blocks of BLOCK consecutive sites,
   and a small heap holds one (score, site) key per block. Every other
   queued site sits in the frontier, a bucket queue (Dial, CACM 1969):
   a site's bucket comes from the top bits of its score mapped to an
   unsigned integer in the same order, and a bitmap of non-empty buckets
   finds the lowest one with two count-trailing-zeros. There are 128
   buckets per power of two over the magnitudes 2^-16 to 2^16, where all
   but a few millionths of the benchmark scenes' initial keys lie (0.0013
   to 8,016 on seeds 1-3). Nearly all visits
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
   the queue rests on, so the sweep refuses it before the first visit.

   Every line here runs on the corpus of tests/test_sanitizers.py but the
   exit when memory runs out; a gcov build there checks it, so no branch
   stays that no input reaches. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Sites per block of the static tier. */
#define BLOCK 64
/* Site state besides the labels 0 (uncommitted) and 1..3: uncommitted
   and untouched, so keyed by its initial score in the static tier. */
#define FRESH 4
/* The 8-neighbourhood of the MRF's two-site cliques, in the order
   hcf_python visits it: each neighbour's (drow, dcol), and its squared
   distance, whose clique weight is lambda2 / d2. */
static const int64_t NEIGHBOUR[8][2] = {{-1, -1}, {-1, 0}, {-1, 1}, {0, -1},
                                        {0, 1}, {1, -1}, {1, 0}, {1, 1}};
static const double D2[8] = {2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 1.0, 2.0};
/* Frontier buckets: 2^SPLIT_BITS per power of two, over scores from
   -2^WINDOW_EXP to -2^-WINDOW_EXP; smaller and larger ones share the two
   end buckets. That is 2^BUCKET_BITS buckets, under a bitmap of two
   levels that branch 64 ways. */
#define SPLIT_BITS 7
#define BUCKET_BITS 12
#define WINDOW_EXP 16
/* score_key(-2^WINDOW_EXP): the exponent bits of 2^WINDOW_EXP inverted,
   then the top SPLIT_BITS bits of its zero mantissa inverted */
#define LOWEST_KEY ((uint32_t)(2047 - (1023 + WINDOW_EXP)) << SPLIT_BITS | ((1 << SPLIT_BITS) - 1))
_Static_assert(1 << (BUCKET_BITS - SPLIT_BITS) == 2 * WINDOW_EXP,
               "the buckets span the 2 * WINDOW_EXP powers of two of the window");
_Static_assert(BUCKET_BITS <= 12, "one word of top covers the words of low");
/* The most sites the lowest bucket may hold before they move to the heap. */
#define BUCKET_CAP 32
/* Frontier.where of a site in no bucket: in no part of the frontier, or
   in its heap. */
#define NO_BUCKET 0xFFFF
#define IN_HEAP 0xFFFE

/* The queue holds every uncommitted site and every committed site that
   can strictly improve, keyed (score, site), and yields them in that
   order. An uncommitted site's score is the gap of its potentials, the
   lowest minus the middle one; a committed site's is its lowest potential
   minus its own, queued only while that is negative. It is the order
   in which hcf_python's lazy-deletion heap pops its live entries, one
   per site. (score, site) is a strict total order, so any exact queue
   yields the same sequence.

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

/* One site of the sweep: its potential of each label, then its key, the
   initial score while it is fresh and its frontier score once it is
   bucketed. 32 bytes, from a 32-byte boundary, so that a neighbour update
   touches one cache line. */
typedef struct {
    double g[3];
    double key;
} Site;

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

/* Remove `site`, which must be in the heap. */
static void drop(Queue *q, int64_t site)
{
    int64_t i = q->slot[site];
    q->slot[site] = -1;
    Entry last = q->heap[--q->size];
    if (i < q->size) {
        place(q, i, last);
        sift_up(q, i);
        sift_down(q, q->slot[last.site]);
    }
}

/* The frontier. A site is in at most one of its buckets and its heap; a
   bucketed site's score is the key of its record, and the heap's
   slot index is valid only for the heap's own sites. Bucket b is a
   circular list through its head node, link[n + b], which links to itself
   while the bucket is empty; so no insert or unlink tests for an end of a
   list. The bitmap starts zeroed and stays exact: a bit of low is set
   while its bucket is non-empty, and a bit of top while its word of low
   is non-zero. */
typedef struct {
    uint32_t next, prev;    /* site or head links within a bucket */
} Link;

typedef struct {
    Link *link;             /* per site, then the head of each bucket */
    uint16_t *where;        /* per site: its bucket, NO_BUCKET or IN_HEAP */
    uint32_t heads;         /* index in link of bucket 0's head: n */
    uint64_t top, low[1 << (BUCKET_BITS - 6)];
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
    fr->top |= bit(b >> 6);
    fr->where[site] = (uint16_t)b;
}

/* Clear the bit of bucket b when `empty` is 1, then the bit of each word
   left zero. */
static inline void bucket_mark(Frontier *fr, uint32_t b, uint64_t empty)
{
    uint64_t *low = &fr->low[b >> 6];
    *low &= ~(empty << (b & 63));
    fr->top &= ~((uint64_t)(*low == 0) << (b >> 6));
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
    int64_t l = __builtin_ctzll(fr->top);
    return l * 64 + __builtin_ctzll(fr->low[l]);
}

/* Key the touched site z by s, inserting it when absent. */
static inline void frontier_set(Frontier *fr, Site *site, uint32_t z, double s)
{
    uint32_t old = fr->where[z];
    if (old == IN_HEAP) {
        set_score(&fr->heap, z, s);
        return;
    }
    uint32_t b = bucket_of(s);
    if (old != b) {
        if (old != NO_BUCKET)
            bucket_remove(fr, z);
        bucket_insert(fr, z, b);
    }
    site[z].key = s;
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
static Entry frontier_top(Frontier *fr, const Site *site)
{
    for (;;) {
        Entry top = fr->heap.size > 0 ? fr->heap.heap[0] : (Entry){0.0, -1};
        int64_t b = lowest_bucket(fr);
        if (b < 0)
            return top;
        uint32_t head = fr->heads + (uint32_t)b, z = fr->link[head].next;
        Entry best = {site[z].key, z};
        int held = 1;
        for (z = fr->link[z].next; z != head && held <= BUCKET_CAP; z = fr->link[z].next, held++) {
            Entry e = {site[z].key, z};
            if (before(e, best))
                best = e;
        }
        if (held <= BUCKET_CAP)
            return top.site >= 0 && before(top, best) ? top : best;
        /* too many ties to scan at every visit: the bucket moves to the heap */
        for (z = fr->link[head].next; z != head; z = fr->link[z].next, fr->spilled++) {
            fr->where[z] = IN_HEAP;
            fr->heap.slot[z] = -1;
            set_score(&fr->heap, z, site[z].key);
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
   at `first`; its site is -1 when none is left. A fresh site's score is
   never positive, so every one is below the start of 1; the strict <
   keeps the first site on equal scores. */
static Entry block_key(const Site *site, const uint8_t *labels, int64_t first, int64_t n)
{
    Entry key = {1.0, -1};
    int64_t end = first + BLOCK < n ? first + BLOCK : n;
    for (int64_t y = first; y < end; y++)
        if (labels[y] == FRESH && site[y].key < key.score)
            key = (Entry){site[y].key, y};
    return key;
}

/* The stability score of an uncommitted site with potentials a, b and
   c: the lowest minus the middle one, as np.partition gives them, so
   never positive. The sweep calls it at every neighbour update, where a
   jump on the data mispredicts, so each select has the form x < y ? x : y
   or x < y ? y : x, which GCC maps to one minsd or maxsd: no jump
   (tests/test_simd_kernels.py checks). On ties the select order can only
   change the sign of a zero result, and score_key and before() take -0.0
   as 0.0. */
static inline double gap(double a, double b, double c)
{
    double lo = a < b ? a : b, hi = b < a ? a : b;
    double mid = c < hi ? c : hi;
    mid = lo < mid ? mid : lo;
    lo = c < lo ? c : lo;
    return lo - mid;
}

/* Label a height x width grid of fewer than 2^31 sites.

   u1, u2    (3, height, width) data potential tables, label-major
   bias      the 3 label biases, unweighted; a site's potential with no
             committed neighbour is (u1 + u2) + lambda1 * bias
   lambda2   the weight of a disagreeing pair of NEIGHBOUR at squared
             distance d2 is lambda2 / d2
   labels    height * width bytes, overlapping no other argument: the
             sweep's state of each site, FRESH, 0 while uncommitted, then
             its label. Out: labels in {1, 2, 3}
   counts    out, 5 values: relabels, the sites the frontier moved from
             a full lowest bucket to its heap; the sites of each label
             1..3. Each site commits once, so the visits are n + relabels.
   terms     4 * height * width + 3 doubles. Out: the first 3 * height *
             width are (3, height, width) rows, each site's u1, u2 and
             bias of its label, then the pair term; energy.energy_of_terms
             sums them. Until the final labels pass the sweep keeps its
             site records here, from the first 32-byte boundary

   Returns 0; -1 when memory runs out, -2 when a site potential is NaN or
   infinite. */
int64_t hcf_sweep(const double *u1, const double *u2, const double *bias, double lambda1,
                  double lambda2, int64_t height, int64_t width,
                  uint8_t *restrict labels, int64_t *counts, double *terms)
{
    int64_t n = height * width, n_blocks = (n + BLOCK - 1) / BLOCK;
    int64_t relabels = 0, fresh = n, result = -1;
    double weighted[3] = {lambda1 * bias[0], lambda1 * bias[1], lambda1 * bias[2]};

    /* each site's record in the caller's terms array, and its state in
       the caller's labels, so neither is a buffer of the sweep's own; the
       first record starts on the 32-byte boundary among the array's first
       four doubles. + 1: malloc(0) may return NULL on an empty grid. */
    Site *site = (Site *)(terms + ((-(uintptr_t)terms >> 3) & 3));
    Entry *blocks = malloc((n_blocks + 1) * sizeof(Entry));
    Frontier fr = {malloc((n + (1 << BUCKET_BITS)) * sizeof(Link)),
                   malloc((n + 1) * sizeof(uint16_t)), (uint32_t)n, 0, {0},
                   {malloc((n + 1) * sizeof(Entry)), malloc((n + 1) * sizeof(int64_t)), 0}, 0};
    if (blocks == NULL || fr.link == NULL || fr.where == NULL
        || fr.heap.heap == NULL || fr.heap.slot == NULL)
        goto done;
    for (uint32_t head = fr.heads; head < fr.heads + (1 << BUCKET_BITS); head++)
        fr.link[head] = (Link){head, head};

    int finite = 1;
    for (int64_t y = 0; y < n; y++) {
        double a = (u1[y] + u2[y]) + weighted[0];
        double b = (u1[n + y] + u2[n + y]) + weighted[1];
        double c = (u1[2 * n + y] + u2[2 * n + y]) + weighted[2];
        finite &= isfinite(a) & isfinite(b) & isfinite(c);
        site[y] = (Site){{a, b, c}, gap(a, b, c)};
        labels[y] = FRESH;
        /* each block's key while its records are still in cache */
        if (y % BLOCK == BLOCK - 1 || y == n - 1)
            blocks[y / BLOCK] = block_key(site, labels, y - y % BLOCK, n);
    }
    if (!finite) {
        result = -2;
        goto done;
    }
    int64_t n_keyed = n_blocks;
    for (int64_t i = n_blocks / 2 - 1; i >= 0; i--)
        block_sift_down(blocks, n_keyed, i);

    for (;;) {
        Entry top = frontier_top(&fr, site);
        int64_t y = -1;
        /* the static tier's top when it comes first, after rekeying the
           blocks whose key names a touched site or dropping those with no
           fresh site left; once every site has been touched, the stale
           block keys left are never rescanned */
        while (fresh > 0 && (top.site < 0 || !before(top, blocks[0]))) {
            if (labels[blocks[0].site] == FRESH) {
                y = blocks[0].site;
                break;
            }
            Entry key = block_key(site, labels, blocks[0].site - blocks[0].site % BLOCK, n);
            if (key.site < 0)
                key = blocks[--n_keyed];
            blocks[0] = key;
            block_sift_down(blocks, n_keyed, 0);
        }
        if (y >= 0) {
            /* it leaves the static tier, in neither part of the frontier */
            labels[y] = 0;
            fresh--;
            fr.where[y] = NO_BUCKET;
        } else if (top.site >= 0) {
            y = top.site;
            frontier_drop(&fr, (uint32_t)y);
        } else {
            break;
        }
        const double *fy = site[y].g;
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
        /* a committed site is queued only while another label is
           strictly cheaper (lo < cur below), and every change to its
           potentials re-keys or drops it, so each visit commits an
           uncommitted site or relabels a committed one */
        uint8_t old = labels[y];
        relabels += old != 0;
        labels[y] = best;

        int64_t r = y / width, c = y - r * width;
        int interior = r > 0 && r < height - 1 && c > 0 && c < width - 1;
        /* unrolled into eight straight-line updates, each with its own
           k, so that its offset and d2 are constants;
           tests/test_simd_kernels.py checks that GCC does */
#pragma GCC unroll 8
        for (int k = 0; k < 8; k++) {
            int64_t z;
            if (interior) {
                z = y + NEIGHBOUR[k][0] * width + NEIGHBOUR[k][1];
            } else {
                int64_t rr = r + NEIGHBOUR[k][0], cc = c + NEIGHBOUR[k][1];
                if (rr < 0 || rr >= height || cc < 0 || cc >= width)
                    continue;
                z = rr * width + cc;
            }
            double *g = site[z].g;
            double w = lambda2 / D2[k];
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
            uint8_t zl = labels[z];
            if (zl == FRESH) {
                /* it leaves the static tier, so a block key naming it goes
                   stale, and enters the frontier below */
                labels[z] = zl = 0;
                fresh--;
                fr.where[z] = NO_BUCKET;
            }
            if (zl == 0) {
                frontier_set(&fr, site, (uint32_t)z, gap(g0, g1, g2));
            } else {
                /* below its own potential, the lowest is another label's */
                double cur = g[zl - 1], lo = g0 < g1 ? g0 : g1;
                lo = g2 < lo ? g2 : lo;
                if (lo < cur)
                    frontier_set(&fr, site, (uint32_t)z, lo - cur);
                else
                    frontier_drop(&fr, (uint32_t)z);
            }
        }
    }

    /* The final labels and what the energy sums of them. The site
       records are spent, so the terms overwrite them. */
    int64_t sites[3] = {0, 0, 0}, pairs[4] = {0, 0, 0, 0};
    for (int64_t r = 0; r < height; r++) {
        const uint8_t *row = labels + r * width, *below = row + width;
        int last_row = r == height - 1;
        for (int64_t c = 0; c < width; c++) {
            int64_t y = r * width + c;
            uint8_t lab = row[c];
            sites[lab - 1]++;
            terms[y] = u1[(lab - 1) * n + y];
            terms[n + y] = u2[(lab - 1) * n + y];
            terms[2 * n + y] = bias[lab - 1];
            if (c + 1 < width)
                pairs[0] += lab != row[c + 1];
            if (last_row)
                continue;
            pairs[1] += lab != below[c];
            if (c + 1 < width)
                pairs[2] += lab != below[c + 1];
            if (c > 0)
                pairs[3] += lab != below[c - 1];
        }
    }
    /* the oracle's order: pairs along (0, 1), (1, 0), (1, 1), (1, -1) */
    terms[3 * n] = (double)pairs[0] / D2[4] + (double)pairs[1] / D2[6]
                   + (double)pairs[2] / D2[7] + (double)pairs[3] / D2[5];
    counts[0] = relabels;
    counts[1] = fr.spilled;
    memcpy(counts + 2, sites, sizeof sites);
    result = 0;

done:
    free(blocks);
    free(fr.link);
    free(fr.where);
    free(fr.heap.heap);
    free(fr.heap.slot);
    return result;
}

#define K 3     /* components per pixel mixture: shadowseg.background.K */

/* mixture_update is compiled twice on x86-64 GCC, for AVX2 and for the
   baseline, and an ifunc resolver picks one when the library loads: no
   -march, so one build runs on any x86-64. Other compilers and machines
   build the one plain function.

   GCC turns a ?: whose arm computes into a branch, and under its default
   -ftrapping-math it will not run that arm on both paths, where the
   arithmetic might raise an exception the branch avoided; so it cannot
   make the pixel loop branch-free, and leaves it scalar. no-trapping-math
   lets it. It changes no result, since nothing here reads the exception
   flags, but it is set for this one function: file-wide it changes
   hcf_sweep's code and slowed the raw sweep 1.03-1.04x. */
#if defined(__GNUC__) && !defined(__clang__)
#if defined(__x86_64__)
#define DISPATCHED __attribute__((target_clones("avx2", "default")))
#else
#define DISPATCHED
#endif
#define SPECULATED __attribute__((optimize("no-trapping-math")))
#else
#define DISPATCHED
#define SPECULATED
#endif

/* One recursive update of every pixel's mixture, in place: the oracle
   update_mixture pixel by pixel.

   weights, means, variances
             (K, n) components, lane-major, updated in place
   frame     n observations
   alpha     learning rate; the other four are the constants of
             shadowseg.background, passed so that they live in one place

   The observation matches the component of largest weight/stddev, first
   index on ties, among those within match_sigmas standard deviations.
   A match pulls that component toward the observation; with none, the
   first component of lowest weight is replaced. The weights are then
   renormalized by their sum taken from lane 0 upward.

   The loop has no branch: every lane's matched, replaced and kept values
   are formed, and selects keep one. The match and the lowest lane are
   held as doubles, -1 for none: GCC vectorizes those compares and not
   int flags. Each select tests one compare: with && in a condition or
   a nested ?:, GCC 12 built the loop out of masks at half the speed, or
   failed with an internal error in the baseline clone. A lane out of range ranks -inf, so the first lane of
   strictly highest rank is the oracle's match: an in-range rank, weight
   over stddev with weights finite and >= 0 and variances > 0, is never
   NaN or -inf. */
DISPATCHED SPECULATED
void mixture_update(double *weights, double *means, double *variances,
                    const double *frame, int64_t n, double alpha,
                    double match_sigmas, double init_weight, double init_variance,
                    double variance_floor)
{
    double keep = 1.0 - alpha;
    double *w0 = weights, *w1 = weights + n, *w2 = weights + 2 * n;
    double *m0 = means, *m1 = means + n, *m2 = means + 2 * n;
    double *v0 = variances, *v1 = variances + n, *v2 = variances + 2 * n;
    _Static_assert(K == 3, "the pixel loop spells out three lanes");
#pragma omp simd
    for (int64_t i = 0; i < n; i++) {
        double g = frame[i];
        double a0 = w0[i], a1 = w1[i], a2 = w2[i];
        double u0 = m0[i], u1 = m1[i], u2 = m2[i];
        double q0 = v0[i], q1 = v1[i], q2 = v2[i];
        double s0 = sqrt(q0), s1 = sqrt(q1), s2 = sqrt(q2);
        double r0 = a0 / s0, r1 = a1 / s1, r2 = a2 / s2;

        /* each lane's rank where it is within match_sigmas, else -inf */
        double c0 = fabs(g - u0) <= match_sigmas * s0 ? r0 : -INFINITY;
        double c1 = fabs(g - u1) <= match_sigmas * s1 ? r1 : -INFINITY;
        double c2 = fabs(g - u2) <= match_sigmas * s2 ? r2 : -INFINITY;
        double match = c0 > -INFINITY ? 0.0 : -1.0;
        double best = c0;
        match = c1 > best ? 1.0 : match;
        best = c1 > best ? c1 : best;
        match = c2 > best ? 2.0 : match;
        /* the first lane of lowest weight, replaced when nothing matches */
        double low = a1 < a0 ? 1.0 : 0.0;
        double lowest = a1 < a0 ? a1 : a0;
        low = a2 < lowest ? 2.0 : low;
        low = match < 0.0 ? low : -1.0;

        double d0 = g - u0, d1 = g - u1, d2 = g - u2;
        double x0 = keep * q0 + alpha * d0 * d0;
        double x1 = keep * q1 + alpha * d1 * d1;
        double x2 = keep * q2 + alpha * d2 * d2;
        /* the oracle's max(v, floor), which keeps a NaN */
        x0 = x0 < variance_floor ? variance_floor : x0;
        x1 = x1 < variance_floor ? variance_floor : x1;
        x2 = x2 < variance_floor ? variance_floor : x2;
        a0 = match == 0.0 ? keep * a0 + alpha : a0;
        a1 = match == 1.0 ? keep * a1 + alpha : a1;
        a2 = match == 2.0 ? keep * a2 + alpha : a2;
        u0 = match == 0.0 ? keep * u0 + alpha * g : u0;
        u1 = match == 1.0 ? keep * u1 + alpha * g : u1;
        u2 = match == 2.0 ? keep * u2 + alpha * g : u2;
        q0 = match == 0.0 ? x0 : q0;
        q1 = match == 1.0 ? x1 : q1;
        q2 = match == 2.0 ? x2 : q2;
        a0 = low == 0.0 ? init_weight : a0;
        a1 = low == 1.0 ? init_weight : a1;
        a2 = low == 2.0 ? init_weight : a2;
        u0 = low == 0.0 ? g : u0;
        u1 = low == 1.0 ? g : u1;
        u2 = low == 2.0 ? g : u2;
        q0 = low == 0.0 ? init_variance : q0;
        q1 = low == 1.0 ? init_variance : q1;
        q2 = low == 2.0 ? init_variance : q2;

        double total = a0 + a1 + a2;
        w0[i] = a0 / total;
        w1[i] = a1 / total;
        w2[i] = a2 / total;
        m0[i] = u0;
        m1[i] = u1;
        m2[i] = u2;
        v0[i] = q0;
        v1[i] = q1;
        v2[i] = q2;
    }
}

/* Per pixel, the mean and variance of the component of largest
   weight/stddev, first index on ties: the oracle select_background.
   Inputs as for mixture_update; mean and variance are n outputs.

   The loop carries the winning mean and variance, not its index, and
   loads each component's mean before the compare, so that no load is a
   gather or under a branch and the pixel loop vectorizes; the ordered >
   keeps the first component on ties and never lets a NaN rank win. */
void mixture_select(const double *weights, const double *means, const double *variances,
                    int64_t n, double *mean, double *variance)
{
#pragma omp simd
    for (int64_t i = 0; i < n; i++) {
        double best_mean = means[i], best_var = variances[i];
        double best_rank = weights[i] / sqrt(best_var);
#pragma GCC unroll 2
        for (int64_t j = 1; j < K; j++) {
            double mu = means[j * n + i], var = variances[j * n + i];
            double rank = weights[j * n + i] / sqrt(var);
            if (rank > best_rank) {
                best_mean = mu;
                best_var = var;
                best_rank = rank;
            }
        }
        mean[i] = best_mean;
        variance[i] = best_var;
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
   fg_log    the foreground intensity potential, log Y_MAX + 0.0
   inv_y_max, y_max_sq, floor
             1 / Y_MAX, Y_MAX^2 and the density floor over Y_MAX^2
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
#pragma omp simd
    for (int64_t i = 0; i < n; i++) {
        double g = frame[i], m = bg_mean[i];
        double eh = edge_h[i], ev = edge_v[i], mh = mean_h[i], mv = mean_v[i];
#pragma GCC unroll 2
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

/* The horizontal and vertical central differences of a height x width
   grid of at least 3 x 3, with replicate padding: the oracle frame_edges
   of tests/oracles.py. A border pixel differs from its one neighbour and
   itself. Row by row, one loop takes the vertical differences between
   the rows above and below, clamped to the grid, and one the horizontal
   differences of the interior columns.

   grid      height * width values
   h, v      out: height * width differences each */
void central_differences(const double *grid, int64_t height, int64_t width,
                         double *h, double *v)
{
    for (int64_t r = 0; r < height; r++) {
        const double *row = grid + r * width;
        const double *up = grid + (r > 0 ? r - 1 : r) * width;
        const double *down = grid + (r < height - 1 ? r + 1 : r) * width;
        double *hr = h + r * width, *vr = v + r * width;
#pragma omp simd
        for (int64_t c = 0; c < width; c++) {
            vr[c] = down[c] - up[c];
        }
        hr[0] = row[1] - row[0];
#pragma omp simd
        for (int64_t c = 1; c < width - 1; c++) {
            hr[c] = row[c + 1] - row[c - 1];
        }
        hr[width - 1] = row[width - 1] - row[width - 2];
    }
}
