/* Native gate walk — C implementation of the Algorithm-2 one-pop
 * schedule in repro/core/query.py (_solo_walk), for one query or for a
 * whole group of queries walked one after another in a single call.
 *
 * The contract is *bitwise identity* with the python kernels:
 *
 *   - Scoring reproduces numpy's einsum "j,j->" float association for
 *     d <= 7 (the SSE2 even/odd two-lane pairwise sum; see dot_pair).
 *     The python wrapper verifies this at load time via repro_dot and
 *     refuses the library on any platform where the association
 *     differs, so a wrong-bits build can never serve queries.
 *   - Heap keys (score, node) are unique — every node is enqueued at
 *     most once — so any correct binary min-heap pops the exact
 *     sequence heapq does; we need not mimic heapq's sift internals.
 *
 * Compiled with -ffp-contract=off: a fused multiply-add would change
 * result bits and break the identity contract.
 *
 * The caller owns every buffer (numpy arrays managed from python); the
 * kernel allocates nothing.  After each lane the gate-state array has
 * been restored to template state and the dirty bitmap re-zeroed, so the
 * next lane — and the next call — reuses the same buffers unconditionally.
 */

#include <stddef.h>
#include <stdint.h>

/* Per-row dot product matching numpy einsum's "j,j->" reduction order
 * for d <= 7: two accumulator lanes over even/odd indices, products
 * folded in ascending pair order, odd-d remainder into the even lane,
 * lanes summed last.  (numpy's unroll-by-8 tree takes over at d >= 8;
 * the python wrapper never dispatches such structures here.) */
static double dot_pair(const double *v, const double *w, int64_t d) {
    double even = 0.0, odd = 0.0;
    int64_t j = 0;
    for (; j + 1 < d; j += 2) {
        even += v[j] * w[j];
        odd += v[j + 1] * w[j + 1];
    }
    if (j < d)
        even += v[j] * w[j];
    return even + odd;
}

/* Exported so the loader can verify the reduction order bitwise against
 * numpy before the library is ever allowed to answer a query. */
double repro_dot(const double *v, const double *w, int64_t d) {
    return dot_pair(v, w, d);
}

/* (score, id) lexicographic min-heap over parallel arrays. */
static inline int heap_less(double sa, int64_t ia, double sb, int64_t ib) {
    return sa < sb || (sa == sb && ia < ib);
}

static void heap_push(double *hs, int64_t *hi, int64_t *size,
                      double score, int64_t id) {
    int64_t i = (*size)++;
    while (i > 0) {
        int64_t parent = (i - 1) >> 1;
        if (!heap_less(score, id, hs[parent], hi[parent]))
            break;
        hs[i] = hs[parent];
        hi[i] = hi[parent];
        i = parent;
    }
    hs[i] = score;
    hi[i] = id;
}

static void heap_pop(double *hs, int64_t *hi, int64_t *size,
                     double *score, int64_t *id) {
    *score = hs[0];
    *id = hi[0];
    int64_t n = --(*size);
    double last_s = hs[n];
    int64_t last_i = hi[n];
    int64_t i = 0;
    for (;;) {
        int64_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            heap_less(hs[child + 1], hi[child + 1], hs[child], hi[child]))
            child++;
        if (!heap_less(hs[child], hi[child], last_s, last_i))
            break;
        hs[i] = hs[child];
        hi[i] = hi[child];
        i = child;
    }
    hs[i] = last_s;
    hi[i] = last_i;
}

/* Everything one walk reads or scribbles on except the query itself:
 * the frozen structure, its static seeds and the workspace buffers.  The
 * python side fills one of these per prepared structure and passes its
 * address on every call. */
typedef struct {
    int64_t n_nodes, n_real, d;
    const double *values;
    const int64_t *f_indptr, *f_indices;
    const int64_t *e_indptr, *e_indices;
    int32_t exists_offset;
    const int64_t *static_seeds;
    int64_t n_static_seeds;
    /* workspace: state/dirty are in template/zero state between walks */
    int32_t *state;
    const int32_t *template_state;
    uint8_t *dirty;
    int64_t *touched;
    double *heap_scores;
    int64_t *heap_ids;
    int64_t *opened;
} repro_walk_ctx;

/* One lane: the classic walk for one weight vector.  Writes at most
 * min(k, n_real) answers and returns how many it wrote. */
static int64_t walk_one(
    const repro_walk_ctx *c,
    const double *weights, int64_t k,
    const int64_t *seed_ids, int64_t n_seeds,
    int64_t *out_ids, double *out_scores, int64_t *counts_out)
{
    /* Copy every context field into a local first: the uint8_t dirty
     * stores may alias anything, so fields read through the struct
     * pointer would be reloaded from memory after each one. */
    const int64_t n_real = c->n_real, d = c->d;
    const int32_t exists_offset = c->exists_offset;
    const double *values = c->values;
    const int64_t *f_indptr = c->f_indptr, *f_indices = c->f_indices;
    const int64_t *e_indptr = c->e_indptr, *e_indices = c->e_indices;
    const int32_t *template_state = c->template_state;
    int32_t *state = c->state;
    uint8_t *dirty = c->dirty;
    int64_t *touched = c->touched;
    double *heap_scores = c->heap_scores;
    int64_t *heap_ids = c->heap_ids;
    int64_t *opened_buf = c->opened;
    int64_t heap_size = 0, touched_len = 0;
    int64_t real_acc = 0, pseudo_acc = 0;
    int64_t n_ans = 0;

    /* Seed enqueue: score (the dot product the loader checked against
     * seed_scores' "ij,j->i" einsum), stamp, count and push. */
    for (int64_t s = 0; s < n_seeds; s++) {
        int64_t node = seed_ids[s];
        double score = dot_pair(values + node * d, weights, d);
        if (!dirty[node]) {
            dirty[node] = 1;
            touched[touched_len++] = node;
        }
        state[node] = -1;
        if (node < n_real)
            real_acc++;
        else
            pseudo_acc++;
        heap_push(heap_scores, heap_ids, &heap_size, score, node);
    }

    while (heap_size > 0 && n_ans < k) {
        double score;
        int64_t node;
        heap_pop(heap_scores, heap_ids, &heap_size, &score, &node);
        if (node < n_real) {
            out_ids[n_ans] = node;
            out_scores[n_ans] = score;
            n_ans++;
            if (n_ans >= k)
                break; /* don't relax the last answer's children */
        }

        /* Relax gates: ∀-children first, then ∃-children — the access
         * order of the reference kernel. */
        int64_t n_open = 0;
        for (int64_t p = f_indptr[node]; p < f_indptr[node + 1]; p++) {
            int64_t child = f_indices[p];
            if (!dirty[child]) {
                dirty[child] = 1;
                touched[touched_len++] = child;
            }
            if (--state[child] == 0)
                opened_buf[n_open++] = child;
        }
        for (int64_t p = e_indptr[node]; p < e_indptr[node + 1]; p++) {
            int64_t child = e_indices[p];
            int32_t st = state[child];
            if (st >= exists_offset) {
                if (!dirty[child]) {
                    dirty[child] = 1;
                    touched[touched_len++] = child;
                }
                st -= exists_offset;
                state[child] = st;
                if (st == 0)
                    opened_buf[n_open++] = child;
            }
        }

        /* Access batch: stamp every opened node as enqueued, score it and
         * push it. */
        for (int64_t i = 0; i < n_open; i++) {
            int64_t child = opened_buf[i];
            state[child] = -1;
            double child_score = dot_pair(values + child * d, weights, d);
            if (child < n_real)
                real_acc++;
            else
                pseudo_acc++;
            heap_push(heap_scores, heap_ids, &heap_size, child_score, child);
        }
    }

    /* Restore the workspace: gate state back to template, dirty bitmap
     * back to zero, so the next lane starts from a clean slate. */
    for (int64_t i = 0; i < touched_len; i++) {
        int64_t node = touched[i];
        state[node] = template_state[node];
        dirty[node] = 0;
    }

    counts_out[0] = real_acc;
    counts_out[1] = pseudo_acc;
    return n_ans;
}

/* Walk n_lanes queries one after another on the shared workspace.
 *
 * ``block`` is the call's one int64 buffer, laid out as
 *   [0, B)          lane i's retrieval size (read),
 *   [B, 2B)         lane i's answer count (written),
 *   [2B, 4B)        lane i's real/pseudo counts at 2B+2i, 2B+2i+1,
 *   [4B, 4B+B*S)    the (B, S) answer ids, row i for lane i,
 * with B = n_lanes and S = out_stride; ``out_scores`` is the (B, S)
 * score array.  Lane i answers weights[i*d .. i*d+d).  out_stride must
 * be at least min(ks[i], n_real) for every lane.  seed_indptr == NULL
 * walks every lane from the structure's static seeds; otherwise lane
 * i's seeds are seed_ids[seed_indptr[i] .. seed_indptr[i+1])
 * (weight-range selectors, which pick seeds per query). */
void repro_walk_many(
    const repro_walk_ctx *ctx,
    int64_t n_lanes, const double *weights,
    const int64_t *seed_indptr, const int64_t *seed_ids,
    int64_t out_stride, int64_t *block, double *out_scores)
{
    const int64_t *ks = block;
    int64_t *out_n = block + n_lanes;
    int64_t *out_counts = block + 2 * n_lanes;
    int64_t *out_ids = block + 4 * n_lanes;
    for (int64_t lane = 0; lane < n_lanes; lane++) {
        const int64_t *seeds = ctx->static_seeds;
        int64_t n_seeds = ctx->n_static_seeds;
        if (seed_indptr != NULL) {
            seeds = seed_ids + seed_indptr[lane];
            n_seeds = seed_indptr[lane + 1] - seed_indptr[lane];
        }
        out_n[lane] = walk_one(
            ctx, weights + lane * ctx->d, ks[lane], seeds, n_seeds,
            out_ids + lane * out_stride, out_scores + lane * out_stride,
            out_counts + 2 * lane);
    }
}
