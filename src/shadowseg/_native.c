/* The compiled kernels of shadowseg, loaded with ctypes by
   shadowseg._native: the highest-confidence-first sweep (hcf_sweep), and
   the per-pixel mixture update and background selection (mixture_update,
   mixture_select).

   Each replays the float64 arithmetic of its reference, operation by
   operation and in the same order, so results come out bit-identical:
   hcf_sweep follows shadowseg.optimizer._hcf_python, the mixture kernels
   follow the numpy bodies of shadowseg.background.MixtureGrid. Built with
   -ffp-contract=off so that no multiply-add is fused, and without
   -ffast-math.

   The HCF queue has two tiers. Sites that no neighbour update has touched
   keep their initial score; they sit in blocks of BLOCK consecutive sites,
   and a small heap holds one (score, site) key per block. Every other
   queued site sits in the frontier, an indexed heap updated in place.
   Nearly all visits come from the frontier, which held at most about 1,500
   sites on 320x240 frames, so neighbour updates sift through a small heap
   instead of one holding every site. */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* Sites per block of the static tier. */
#define BLOCK 64
/* Site state besides the labels 0 (uncommitted) and 1..3: uncommitted
   and untouched, so keyed by its initial score in the static tier. */
#define FRESH 4

/* The queue holds every uncommitted site and every committed site that
   can strictly improve, keyed (score, site), and yields them in that
   order: the order in which the Python loop's lazy-deletion heap pops its
   live entries, one per site.

   The static tier's key of a block is the smallest (score, site) of its
   fresh sites when it was last computed. Sites only ever leave the fresh
   set, so the key stays a lower bound of the block's fresh keys, and it
   is exact while its own site is fresh. A key whose site has been touched
   is recomputed lazily: only once it is the smallest block key and the
   frontier's top does not come before it. So the smaller of the two tops
   is the smallest key of the whole queue, the one the single heap of
   every site would pop. */

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

/* Label a height x width grid.

   u1, u2    (3, height, width) data potential tables, label-major
   bias      3 weighted label biases, lambda1 * bias; a site's potential
             with no committed neighbour is (u1 + u2) + bias
   offsets   8 (drow, dcol) pairs, the neighbour order of the Python loop
   weights   8 clique weights, lambda2 / squared distance, in that order
   labels    out: height * width labels in {1, 2, 3}
   counts    out: visits, commits, relabels
   kinds, energies
             out: per commit (kind 0) or relabel (kind 1), the running
             energy after it; only the first `capacity` are written

   Returns the number of commits and relabels, which may exceed
   `capacity`, or -1 when memory runs out. */
int64_t hcf_sweep(const double *u1, const double *u2, const double *bias,
                  int64_t height, int64_t width,
                  const int64_t *offsets, const double *weights,
                  int64_t *labels, int64_t *counts,
                  uint8_t *kinds, double *energies, int64_t capacity)
{
    int64_t n = height * width, n_blocks = (n + BLOCK - 1) / BLOCK;
    int64_t visits = 0, commits = 0, relabels = 0, fresh = n;
    double running = 0.0;

    /* + 1: malloc(0) may return NULL on an empty grid */
    double *f = malloc((3 * n + 1) * sizeof(double));
    double *score = malloc((n + 1) * sizeof(double));
    uint8_t *state = malloc(n + 1);
    Entry *blocks = malloc((n_blocks + 1) * sizeof(Entry));
    Queue q = {malloc((n + 1) * sizeof(Entry)), malloc((n + 1) * sizeof(int64_t)), 0};
    if (f == NULL || score == NULL || state == NULL || blocks == NULL
        || q.heap == NULL || q.slot == NULL) {
        free(f);
        free(score);
        free(state);
        free(blocks);
        free(q.heap);
        free(q.slot);
        return -1;
    }

    for (int64_t y = 0; y < n; y++) {
        double a = (u1[y] + u2[y]) + bias[0];
        double b = (u1[n + y] + u2[n + y]) + bias[1];
        double c = (u1[2 * n + y] + u2[2 * n + y]) + bias[2];
        f[3 * y] = a;
        f[3 * y + 1] = b;
        f[3 * y + 2] = c;
        state[y] = FRESH;
        q.slot[y] = -1;
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
        int64_t y;
        /* the smaller of the two tops; once every site has been touched,
           the stale block keys left are never rescanned */
        if (fresh > 0 && (q.size == 0 || !before(q.heap[0], blocks[0]))) {
            y = blocks[0].site;
            if (state[y] != FRESH) {
                /* touched since it was keyed: rekey its block, or drop a
                   block left with no fresh site */
                Entry key = block_key(score, state, y - y % BLOCK, n);
                if (key.site < 0)
                    key = blocks[--n_keyed];
                blocks[0] = key;
                block_sift_down(blocks, n_keyed, 0);
                continue;
            }
            state[y] = 0;
            fresh--;
        } else if (q.size > 0) {
            y = q.heap[0].site;
            drop(&q, y);
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
                /* it leaves the static tier; a block key naming it goes stale */
                state[z] = zl = 0;
                fresh--;
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
                set_score(&q, z, lo - second);
            } else {
                double cur = g[zl - 1], alt;
                if (zl == 1)
                    alt = g2 < g1 ? g2 : g1;
                else if (zl == 2)
                    alt = g2 < g0 ? g2 : g0;
                else
                    alt = g1 < g0 ? g1 : g0;
                if (alt - cur < 0.0)
                    set_score(&q, z, alt - cur);
                else
                    drop(&q, z);
            }
        }
    }

    for (int64_t y = 0; y < n; y++)
        labels[y] = state[y];
    free(f);
    free(score);
    free(state);
    free(blocks);
    free(q.heap);
    free(q.slot);
    counts[0] = visits;
    counts[1] = commits;
    counts[2] = relabels;
    return commits + relabels;
}

/* One recursive update of every pixel's mixture, in place:
   MixtureGrid._update_numpy pixel by pixel.

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
            /* np.maximum, which keeps a NaN */
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
   weight/stddev, first index on ties: MixtureGrid._select_numpy.
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
