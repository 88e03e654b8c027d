/* Highest-confidence-first sweep, compiled.

   The visit loop of shadowseg.optimizer._hcf_python, replaying its float64
   additions and subtractions in the same order, so labels, counts and the
   running energy come out bit-identical. Built with -ffp-contract=off so
   that no multiply-add is fused.

   The priority queue is an indexed binary heap: one slot per site, keyed
   (score, site), updated or removed in place. The Python loop's
   lazy-deletion heap holds at most one live entry per site and pops live
   entries in (score, site) order, so both visit the sites in one order.

   Loaded with ctypes by shadowseg.optimizer; see hcf_sweep below. */

#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int64_t *heap;      /* sites in heap order */
    int64_t *slot;      /* index of each site in heap, -1 when absent */
    double *score;      /* key of each site */
    int64_t size;
} Queue;

static int before(const Queue *q, int64_t a, int64_t b)
{
    return q->score[a] < q->score[b] || (q->score[a] == q->score[b] && a < b);
}

static void place(Queue *q, int64_t i, int64_t site)
{
    q->heap[i] = site;
    q->slot[site] = i;
}

static void sift_up(Queue *q, int64_t i)
{
    int64_t site = q->heap[i];
    while (i > 0) {
        int64_t parent = (i - 1) / 2;
        if (!before(q, site, q->heap[parent]))
            break;
        place(q, i, q->heap[parent]);
        i = parent;
    }
    place(q, i, site);
}

static void sift_down(Queue *q, int64_t i)
{
    int64_t site = q->heap[i];
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= q->size)
            break;
        if (child + 1 < q->size && before(q, q->heap[child + 1], q->heap[child]))
            child++;
        if (!before(q, q->heap[child], site))
            break;
        place(q, i, q->heap[child]);
        i = child;
    }
    place(q, i, site);
}

/* Key `site` by `score`, inserting it when absent. */
static void set_score(Queue *q, int64_t site, double score)
{
    q->score[site] = score;
    if (q->slot[site] < 0) {
        place(q, q->size++, site);
        sift_up(q, q->size - 1);
    } else {
        sift_up(q, q->slot[site]);
        sift_down(q, q->slot[site]);
    }
}

static void drop(Queue *q, int64_t site)
{
    int64_t i = q->slot[site];
    if (i < 0)
        return;
    q->slot[site] = -1;
    int64_t last = q->heap[--q->size];
    if (i < q->size) {
        place(q, i, last);
        sift_up(q, i);
        sift_down(q, q->slot[last]);
    }
}

/* Label a height x width grid.

   base      (3, height, width) local potentials with no committed
             neighbour: data terms plus weighted bias, label-major
   offsets   8 (drow, dcol) pairs, the neighbour order of the Python loop
   weights   8 clique weights, lambda2 / squared distance, in that order
   labels    out: height * width labels in {1, 2, 3}
   counts    out: visits, commits, relabels
   kinds, energies
             out: per commit (kind 0) or relabel (kind 1), the running
             energy after it; only the first `capacity` are written

   Returns the number of commits and relabels, which may exceed
   `capacity`, or -1 when memory runs out. */
int64_t hcf_sweep(const double *base, int64_t height, int64_t width,
                  const int64_t *offsets, const double *weights,
                  int64_t *labels, int64_t *counts,
                  uint8_t *kinds, double *energies, int64_t capacity)
{
    int64_t n = height * width;
    int64_t visits = 0, commits = 0, relabels = 0;
    double running = 0.0;

    /* + 1: malloc(0) may return NULL on an empty grid */
    double *f = malloc((3 * n + 1) * sizeof(double));
    Queue q = {malloc((n + 1) * sizeof(int64_t)), malloc((n + 1) * sizeof(int64_t)),
               malloc((n + 1) * sizeof(double)), n};
    if (f == NULL || q.heap == NULL || q.slot == NULL || q.score == NULL) {
        free(f);
        free(q.heap);
        free(q.slot);
        free(q.score);
        return -1;
    }

    for (int64_t y = 0; y < n; y++) {
        double a = base[y], b = base[n + y], c = base[2 * n + y];
        f[3 * y] = a;
        f[3 * y + 1] = b;
        f[3 * y + 2] = c;
        labels[y] = 0;
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
        q.score[y] = lo - mid;
        q.heap[y] = y;
        q.slot[y] = y;
    }
    for (int64_t i = n / 2 - 1; i >= 0; i--)
        sift_down(&q, i);

    while (q.size > 0) {
        int64_t y = q.heap[0];
        drop(&q, y);
        visits++;
        double *fy = f + 3 * y;
        int64_t best = 1;
        double best_f = fy[0];
        if (fy[1] < best_f) {
            best = 2;
            best_f = fy[1];
        }
        if (fy[2] < best_f) {
            best = 3;
            best_f = fy[2];
        }
        int64_t old = labels[y];
        uint8_t kind;
        if (old == 0) {
            labels[y] = best;
            commits++;
            running += best_f;
            kind = 0;
        } else {
            if (best_f >= fy[old - 1])
                continue;
            labels[y] = best;
            relabels++;
            running += best_f - fy[old - 1];
            kind = 1;
        }
        int64_t event = commits + relabels - 1;
        if (event < capacity) {
            kinds[event] = kind;
            energies[event] = running;
        }

        int64_t r = y / width, c = y % width;
        for (int k = 0; k < 8; k++) {
            int64_t rr = r + offsets[2 * k], cc = c + offsets[2 * k + 1];
            if (rr < 0 || rr >= height || cc < 0 || cc >= width)
                continue;
            int64_t z = rr * width + cc;
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
            int64_t zl = labels[z];
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

    free(f);
    free(q.heap);
    free(q.slot);
    free(q.score);
    counts[0] = visits;
    counts[1] = commits;
    counts[2] = relabels;
    return commits + relabels;
}
