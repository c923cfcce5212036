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
 *   - Pruning replicates the classic kernel's batch semantics: all
 *     prune decisions inside one opened batch compare against the k-th
 *     floor as of batch start; scores (and k-th updates) happen after
 *     the whole batch is filtered.  Definition-9 real/pseudo counts
 *     come out exact, not approximate.
 *
 * Compiled with -ffp-contract=off: a fused multiply-add would change
 * result bits and break the identity contract.
 *
 * The caller owns every buffer (numpy arrays managed from python); the
 * kernel allocates nothing.  After each lane the gate-state array has
 * been restored to template state and the dirty bitmap re-zeroed, so the
 * next lane — and the next call — reuses the same buffers unconditionally.
 */

#include <stdint.h>
#include <string.h>

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

/* Bounded max-heap of the k smallest real scores seen so far; its root
 * is the running k-th floor.  Matches python's negated-min-heap: the
 * multiset "k smallest so far" is order-independent, and only the root
 * (the k-th smallest) is ever read. */
static void kth_note(double *kh, int64_t *len, int64_t k, double *kth,
                     double score) {
    if (*len < k) {
        int64_t i = (*len)++;
        while (i > 0) {
            int64_t parent = (i - 1) >> 1;
            if (kh[parent] >= score)
                break;
            kh[i] = kh[parent];
            i = parent;
        }
        kh[i] = score;
        if (*len == k)
            *kth = kh[0];
    } else if (score < *kth) {
        int64_t i = 0;
        for (;;) {
            int64_t child = 2 * i + 1;
            if (child >= k)
                break;
            if (child + 1 < k && kh[child + 1] > kh[child])
                child++;
            if (kh[child] <= score)
                break;
            kh[i] = kh[child];
            i = child;
        }
        kh[i] = score;
        *kth = kh[0];
    }
}

#define POS_INF (1.0 / 0.0)

/* Everything one walk reads or scribbles on except the query itself:
 * the frozen structure, its static seeds, the workspace buffers and the
 * (lazily attached) pruning bound tables.  The python side fills one of
 * these per prepared structure and passes its address on every call. */
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
    double *kth;
    /* pruning (NULL until a pruned walk first needs them) */
    const int64_t *sub_of;
    const double *sub_mins;
    int64_t n_sub_rows;
    const int64_t *block_of;
    const double *block_mins;
    int64_t n_block_rows;
    uint8_t *pruned_sub;
} repro_walk_ctx;

/* One lane: the classic walk for one weight vector.  Writes at most
 * min(k, n_real) answers and returns how many it wrote. */
static int64_t walk_one(
    const repro_walk_ctx *c, int32_t prune,
    const double *weights, int64_t k,
    const int64_t *seed_ids, int64_t n_seeds,
    int64_t *out_ids, double *out_scores, int64_t *counts_out)
{
    /* Copy every context field into a local first: the uint8_t dirty
     * and pruned_sub stores may alias anything, so fields read through
     * the struct pointer would be reloaded from memory after each one. */
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
    double *kth_buf = c->kth;
    const int64_t *sub_of = c->sub_of, *block_of = c->block_of;
    const double *sub_mins = c->sub_mins, *block_mins = c->block_mins;
    const int64_t n_sub_rows = c->n_sub_rows, n_block_rows = c->n_block_rows;
    uint8_t *pruned_sub = c->pruned_sub;
    int64_t heap_size = 0, touched_len = 0;
    int64_t real_acc = 0, pseudo_acc = 0;
    int64_t kth_len = 0;
    double kth_score = POS_INF;
    int64_t n_ans = 0;
    const int fold_kth = prune && k > 0;

    if (prune)
        memset(pruned_sub, 0, (size_t)n_sub_rows);

    /* Seed enqueue: score (the dot product the loader checked against
     * seed_scores' "ij,j->i" einsum), stamp, count, push, and fold real
     * seed scores into the k-th floor.  Pushes never read the floor, so
     * folding as we go sees the same sequence of scores as the python
     * kernels' fold-after-push loop. */
    for (int64_t s = 0; s < n_seeds; s++) {
        int64_t node = seed_ids[s];
        double score = dot_pair(values + node * d, weights, d);
        if (!dirty[node]) {
            dirty[node] = 1;
            touched[touched_len++] = node;
        }
        state[node] = -1;
        if (node < n_real) {
            real_acc++;
            if (fold_kth)
                kth_note(kth_buf, &kth_len, k, &kth_score, score);
        } else {
            pseudo_acc++;
        }
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
        if (n_open == 0)
            continue;

        /* Access batch: stamp every opened node as enqueued first (even
         * ones about to be pruned — they are dropped *as if* pushed). */
        for (int64_t i = 0; i < n_open; i++)
            state[opened_buf[i]] = -1;

        if (prune) {
            /* Filter against the k-th floor as of batch start.  A flag
             * set at level 2 by an earlier node in this batch short-
             * circuits later same-sublayer nodes at level 1 — the same
             * drop the bound recheck would produce, since kth_score is
             * frozen for the whole batch. */
            int64_t kept = 0;
            for (int64_t i = 0; i < n_open; i++) {
                int64_t child = opened_buf[i];
                int64_t sub = sub_of[child];
                if (sub < 0)
                    sub += n_sub_rows; /* unplaced: trailing -inf sentinel */
                if (pruned_sub[sub])
                    continue; /* level 1: sublayer already proven prunable */
                double sub_bound = dot_pair(sub_mins + sub * d, weights, d);
                if (sub_bound > kth_score) {
                    pruned_sub[sub] = 1; /* level 2: prune for the query */
                    continue;
                }
                int64_t block = block_of[child];
                if (block < 0)
                    block += n_block_rows;
                double bound = dot_pair(block_mins + block * d, weights, d);
                if (bound > kth_score)
                    continue; /* level 3: exact block bound */
                opened_buf[kept++] = child;
            }
            n_open = kept;
        }

        for (int64_t i = 0; i < n_open; i++) {
            int64_t child = opened_buf[i];
            double child_score = dot_pair(values + child * d, weights, d);
            if (child < n_real) {
                real_acc++;
                if (fold_kth)
                    kth_note(kth_buf, &kth_len, k, &kth_score, child_score);
            } else {
                pseudo_acc++;
            }
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
 * Lane i answers weights[i*d .. i*d+d) with retrieval size ks[i] and
 * writes its answers to row i of the (n_lanes, out_stride) id/score
 * arrays, its answer count to out_n[i] and its real/pseudo counts to
 * out_counts[2i], out_counts[2i+1].  out_stride must be at least
 * min(ks[i], n_real) for every lane.  seed_indptr == NULL walks every
 * lane from the structure's static seeds; otherwise lane i's seeds are
 * seed_ids[seed_indptr[i] .. seed_indptr[i+1]) (weight-range selectors,
 * which pick seeds per query). */
void repro_walk_many(
    const repro_walk_ctx *ctx, int32_t prune,
    int64_t n_lanes, const double *weights, const int64_t *ks,
    const int64_t *seed_indptr, const int64_t *seed_ids,
    int64_t out_stride, int64_t *out_ids, double *out_scores,
    int64_t *out_n, int64_t *out_counts)
{
    for (int64_t lane = 0; lane < n_lanes; lane++) {
        const int64_t *seeds = ctx->static_seeds;
        int64_t n_seeds = ctx->n_static_seeds;
        if (seed_indptr != NULL) {
            seeds = seed_ids + seed_indptr[lane];
            n_seeds = seed_indptr[lane + 1] - seed_indptr[lane];
        }
        out_n[lane] = walk_one(
            ctx, prune, weights + lane * ctx->d, ks[lane], seeds, n_seeds,
            out_ids + lane * out_stride, out_scores + lane * out_stride,
            out_counts + 2 * lane);
    }
}
