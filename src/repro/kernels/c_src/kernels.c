/* SpMV kernels for the CSCV reproduction.
 *
 * Style contract (the paper's portability claim, Section IV-E):
 * every kernel is plain scalar C — no intrinsics, no inline assembly —
 * written so the compiler's auto-vectoriser turns the fixed-length
 * contiguous inner loops into wide SIMD (AVX-512 on the build host).
 * The CSCV inner loops in particular are straight-line FMA streams over
 * contiguous memory, which is the entire point of the format.
 *
 * Index conventions match the Python side: 32-bit element indices,
 * 64-bit sizes/pointers offsets.
 *
 * Built with: cc -O3 -march=native -fopenmp -fPIC -shared -std=c11
 *             -ffp-contract=off
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>

#ifdef _OPENMP
#include <omp.h>
#endif

/* The single exception to the no-intrinsics rule, taken straight from the
 * paper (Section IV-E): "On Intel platforms, CSCV-M uses the hardware
 * vexpand instructions in AVX-512 for vector expansion; on other
 * platforms, vector expansion is implemented by software code denoted as
 * soft-vexpand".  We guard the hardware path behind __AVX512F__. */
#if defined(__AVX512F__)
#include <immintrin.h>
#define HAVE_VEXPAND 1
#endif

#define EXPORT __attribute__((visibility("default")))

/* ------------------------------------------------------------------ */
/* CSR: y[i] = sum_k vals[k] * x[col[k]], k in row i                    */

#define DEFINE_CSR(SUF, T)                                                  \
EXPORT void csr_spmv_##SUF(int64_t m, const int32_t *row_ptr,               \
                           const int32_t *col_idx, const T *vals,           \
                           const T *x, T *y) {                              \
    _Pragma("omp parallel for schedule(static)")                            \
    for (int64_t i = 0; i < m; ++i) {                                       \
        T acc = (T)0;                                                       \
        for (int32_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k)               \
            acc += vals[k] * x[col_idx[k]];                                 \
        y[i] = acc;                                                         \
    }                                                                       \
}

DEFINE_CSR(f32, float)
DEFINE_CSR(f64, double)

/* ------------------------------------------------------------------ */
/* CSC: paper Algorithm 1 — scatter x_i * vals into y (single thread:   */
/* the scatter races under naive OpenMP, matching why CSC is hard).     */

#define DEFINE_CSC(SUF, T)                                                  \
EXPORT void csc_spmv_##SUF(int64_t m, int64_t n, const int32_t *col_ptr,    \
                           const int32_t *row_idx, const T *vals,           \
                           const T *x, T *y) {                              \
    memset(y, 0, (size_t)m * sizeof(T));                                    \
    for (int64_t i = 0; i < n; ++i) {                                       \
        const T xi = x[i];                                                  \
        for (int32_t k = col_ptr[i]; k < col_ptr[i + 1]; ++k)               \
            y[row_idx[k]] += xi * vals[k];                                  \
    }                                                                       \
}

DEFINE_CSC(f32, float)
DEFINE_CSC(f64, double)

/* ------------------------------------------------------------------ */
/* ELL: column-major slabs, width w, padded with col=-1                 */

#define DEFINE_ELL(SUF, T)                                                  \
EXPORT void ell_spmv_##SUF(int64_t m, int64_t width, const int32_t *cols,   \
                           const T *vals, const T *x, T *y) {               \
    _Pragma("omp parallel for schedule(static)")                            \
    for (int64_t i = 0; i < m; ++i) {                                       \
        T acc = (T)0;                                                       \
        for (int64_t k = 0; k < width; ++k) {                               \
            const int64_t idx = k * m + i; /* column-major */               \
            const int32_t c = cols[idx];                                    \
            if (c >= 0) acc += vals[idx] * x[c];                            \
        }                                                                   \
        y[i] = acc;                                                         \
    }                                                                       \
}

DEFINE_ELL(f32, float)
DEFINE_ELL(f64, double)

/* ------------------------------------------------------------------ */
/* Fixed-order chunk reduction: the one threading rule of every driver  */
/* whose threads would otherwise race on shared outputs (CSCV forward   */
/* and adjoint, CSR adjoint).                                           */
/*                                                                      */
/* The Python side splits the work units (CSCV blocks, CSR rows) into a */
/* fixed, nnz-balanced list of chunks once per operator                 */
/* (repro.core.spmv.chunk_plan):                                        */
/*   chunk_ptr[c] .. chunk_ptr[c+1] : the units of chunk c              */
/*   span[2c] .. span[2c+1]         : output rows [lo, hi) it touches   */
/* Chunk c accumulates into a private (hi - lo) x k output; the private */
/* outputs are then added into the zeroed result in chunk-index order   */
/* (the rule repro.dist's fixed_order_sum applies across processes).    */
/* Chunks, the order inside a chunk and the summation order depend on   */
/* the operator alone, so results are bitwise-identical for any thread  */
/* count: nthreads <= 1 streams the chunks through one scratch buffer   */
/* with exactly the same arithmetic.                                    */

typedef void (*chunk_fn)(const void *ctx, int64_t u0, int64_t u1, void *priv,
                         int64_t lo);

/* output rows per reduction tile (threads split the output, each tile  */
/* adds the chunks covering it in chunk order)                          */
#define RED_ROWS 1024

#define DEFINE_RUN_CHUNKS(SUF, T)                                           \
static void run_chunks_##SUF(int64_t nout, int64_t k, int64_t nchunks,      \
                             const int64_t *chunk_ptr, const int64_t *span, \
                             T *out, int nthreads, chunk_fn fn,             \
                             const void *ctx) {                             \
    memset(out, 0, (size_t)(nout * k) * sizeof(T));                         \
    if (k == 0 || nchunks <= 0) return;                                     \
    int64_t *off = (int64_t *)malloc((size_t)(nchunks + 1) * sizeof(int64_t)); \
    int64_t wmax = 0;                                                       \
    off[0] = 0;                                                             \
    for (int64_t c = 0; c < nchunks; ++c) {                                 \
        const int64_t w = (span[2 * c + 1] - span[2 * c]) * k;              \
        off[c + 1] = off[c] + w;                                            \
        if (w > wmax) wmax = w;                                             \
    }                                                                       \
    if (nthreads > nchunks) nthreads = (int)nchunks;                        \
    if (nthreads <= 1) {                                                    \
        T *priv = (T *)malloc((size_t)(wmax > 0 ? wmax : 1) * sizeof(T));  \
        for (int64_t c = 0; c < nchunks; ++c) {                             \
            const int64_t lo = span[2 * c], w = off[c + 1] - off[c];        \
            memset(priv, 0, (size_t)w * sizeof(T));                         \
            fn(ctx, chunk_ptr[c], chunk_ptr[c + 1], priv, lo);              \
            T *dst = out + lo * k;                                          \
            for (int64_t i = 0; i < w; ++i) dst[i] += priv[i];              \
        }                                                                   \
        free(priv);                                                         \
        free(off);                                                          \
        return;                                                             \
    }                                                                       \
    T *priv = (T *)malloc((size_t)(off[nchunks] > 0 ? off[nchunks] : 1)     \
                          * sizeof(T));                                     \
    _Pragma("omp parallel num_threads(nthreads)")                           \
    {                                                                       \
        _Pragma("omp for schedule(static, 1)")                              \
        for (int64_t c = 0; c < nchunks; ++c) {                             \
            memset(priv + off[c], 0, (size_t)(off[c + 1] - off[c]) * sizeof(T)); \
            fn(ctx, chunk_ptr[c], chunk_ptr[c + 1], priv + off[c],          \
               span[2 * c]);                                                \
        }                                                                   \
        _Pragma("omp for schedule(static)")                                 \
        for (int64_t r0 = 0; r0 < nout; r0 += RED_ROWS) {                   \
            const int64_t r1 = r0 + RED_ROWS < nout ? r0 + RED_ROWS : nout; \
            for (int64_t c = 0; c < nchunks; ++c) {                         \
                const int64_t lo = span[2 * c];                             \
                const int64_t a = r0 > lo ? r0 : lo;                        \
                const int64_t b = r1 < span[2 * c + 1] ? r1 : span[2 * c + 1]; \
                T *dst = out + a * k;                                       \
                const T *src = priv + off[c] + (a - lo) * k;                \
                for (int64_t i = 0; i < (b - a) * k; ++i) dst[i] += src[i]; \
            }                                                               \
        }                                                                   \
    }                                                                       \
    free(priv);                                                             \
    free(off);                                                              \
}

DEFINE_RUN_CHUNKS(f32, float)
DEFINE_RUN_CHUNKS(f64, double)

/* ------------------------------------------------------------------ */
/* Lane-major multi-RHS kernels.                                        */
/*                                                                      */
/* Stacks are row-major (rows, k): the k lanes of one row are           */
/* contiguous, and every kernel below puts the lane loop innermost.     */
/* LANES(k, BODY) runs BODY(K, LD, J0) with a compile-time lane count   */
/* K: one call when k is 1, 2, 4 or 8 (LD = K, so a whole slot run is   */
/* contiguous and vectorises like the 1-D kernel), else 8-wide panels   */
/* plus a 4/2/1 remainder at row stride LD = k.  Every variant applies  */
/* the same operations to a lane in the same order, and the build       */
/* disables FMA contraction (-std=c11 -ffp-contract=off), so column j   */
/* of a k-wide call is bitwise equal to its k = 1 run.                  */

#define INLINE static inline __attribute__((always_inline))

/* Vectorise a lane loop across its K lanes.  Without it GCC vectorises
 * the enclosing slot loop instead, as K in-order reductions, and the
 * k = 8 adjoint runs about 3x slower.  Lanes never interact, so the
 * per-lane order (and with it every bit) is the same either way. */
#define LANE_SIMD _Pragma("omp simd")

#define LANES(k, BODY)                                                      \
    switch (k) {                                                            \
    case 1: BODY(1, 1, 0); break;                                           \
    case 2: BODY(2, 2, 0); break;                                           \
    case 4: BODY(4, 4, 0); break;                                           \
    case 8: BODY(8, 8, 0); break;                                           \
    default: {                                                              \
        int64_t j0_ = 0;                                                    \
        for (; (k) - j0_ >= 8; j0_ += 8) BODY(8, (k), j0_);                 \
        if ((k) - j0_ >= 4) { BODY(4, (k), j0_); j0_ += 4; }                \
        if ((k) - j0_ >= 2) { BODY(2, (k), j0_); j0_ += 2; }                \
        if ((k) - j0_ >= 1) BODY(1, (k), j0_);                              \
    } }

#ifdef __GNUC__
#define CTZ32(x) __builtin_ctz((unsigned)(x))
#else
static inline int ctz32_sw(uint32_t v) {
    int c = 0;
    while (!(v & 1u)) { v >>= 1; ++c; }
    return c;
}
#define CTZ32(x) ctz32_sw(x)
#endif

/* Everything a CSCV chunk needs: the block layout, the IOBLR reorder   */
/* map, and the input stack (x for the forward, y for the adjoint).     */
typedef struct {
    const int64_t *blk_vxg_ptr;
    const int32_t *vxg_col;
    const int32_t *vxg_start;
    const void *values;         /* Z: padded slots; M: packed nonzeros */
    const int64_t *vxg_voff;    /* M only */
    const uint32_t *vxg_masks;  /* M only */
    int64_t vxg_len, s_vxg, s_vvec;
    const int64_t *blk_ysize;
    const int64_t *blk_map_ptr;
    const int32_t *map;
    int64_t max_ysize, k;
    const void *in;
} cscv_ctx;

#define DEFINE_LANE_KERNELS(SUF, T)                                         \
/* CSCV-Z forward: one contiguous FMA run per VxG into ytilde.  */         \
INLINE void z_fwd_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,            \
        int64_t ng, int64_t len, const int32_t *restrict col,               \
        const int32_t *restrict start, const T *restrict v,                 \
        const T *restrict X, T *restrict yt) {                              \
    for (int64_t g = 0; g < ng; ++g) {                                      \
        const T *xr = X + (int64_t)col[g] * ld + j0;                        \
        T *yg = yt + (int64_t)start[g] * ld + j0;                           \
        const T *vg = v + g * len;                                          \
        for (int64_t s = 0; s < len; ++s) {                                \
            const T vs = vg[s];                                             \
            LANE_SIMD                                                       \
            for (int64_t j = 0; j < K; ++j) yg[s * ld + j] += vs * xr[j];   \
        }                                                                   \
    }                                                                       \
}                                                                           \
/* CSCV-Z adjoint: one contiguous dot product per VxG and lane.  */        \
INLINE void z_adj_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,            \
        int64_t ng, int64_t len, const int32_t *restrict col,               \
        const int32_t *restrict start, const T *restrict v,                 \
        const T *restrict yt, T *restrict out, int64_t lo) {                \
    for (int64_t g = 0; g < ng; ++g) {                                      \
        const T *yg = yt + (int64_t)start[g] * ld + j0;                     \
        const T *vg = v + g * len;                                          \
        T acc[8];                                                           \
        for (int64_t j = 0; j < K; ++j) acc[j] = (T)0;                      \
        for (int64_t s = 0; s < len; ++s) {                                 \
            const T vs = vg[s];                                             \
            LANE_SIMD                                                       \
            for (int64_t j = 0; j < K; ++j) acc[j] += vs * yg[s * ld + j];  \
        }                                                                   \
        T *xo = out + ((int64_t)col[g] - lo) * ld + j0;                     \
        for (int64_t j = 0; j < K; ++j) xo[j] += acc[j];                    \
    }                                                                       \
}                                                                           \
/* CSCV-M forward: walk the set mask bits (soft-vexpand), each packed   */ \
/* value feeding a K-wide FMA.                                          */ \
INLINE void m_fwd_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,            \
        int64_t ng, int64_t s_vxg, int64_t s_vvec,                          \
        const int32_t *restrict col, const int32_t *restrict start,         \
        const int64_t *restrict voff, const uint32_t *restrict masks,       \
        const T *restrict packed, const T *restrict X, T *restrict yt) {    \
    for (int64_t g = 0; g < ng; ++g) {                                      \
        const T *xr = X + (int64_t)col[g] * ld + j0;                        \
        const T *pv = packed + voff[g];                                     \
        T *yg = yt + (int64_t)start[g] * ld + j0;                           \
        const uint32_t *gm = masks + g * s_vxg;                             \
        for (int64_t e = 0; e < s_vxg; ++e) {                               \
            for (uint32_t mask = gm[e]; mask; mask &= mask - 1) {           \
                T *ys = yg + (e * s_vvec + CTZ32(mask)) * ld;               \
                const T a = *pv++;                                          \
                LANE_SIMD                                                   \
                for (int64_t j = 0; j < K; ++j) ys[j] += a * xr[j];         \
            }                                                               \
        }                                                                   \
    }                                                                       \
}                                                                           \
/* CSCV-M adjoint: the same bit walk as a dot product per VxG and lane. */ \
INLINE void m_adj_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,            \
        int64_t ng, int64_t s_vxg, int64_t s_vvec,                          \
        const int32_t *restrict col, const int32_t *restrict start,         \
        const int64_t *restrict voff, const uint32_t *restrict masks,       \
        const T *restrict packed, const T *restrict yt, T *restrict out,    \
        int64_t lo) {                                                       \
    for (int64_t g = 0; g < ng; ++g) {                                      \
        const T *pv = packed + voff[g];                                     \
        const T *yg = yt + (int64_t)start[g] * ld + j0;                     \
        const uint32_t *gm = masks + g * s_vxg;                             \
        T acc[8];                                                           \
        for (int64_t j = 0; j < K; ++j) acc[j] = (T)0;                      \
        for (int64_t e = 0; e < s_vxg; ++e) {                               \
            for (uint32_t mask = gm[e]; mask; mask &= mask - 1) {           \
                const T *ys = yg + (e * s_vvec + CTZ32(mask)) * ld;         \
                const T a = *pv++;                                          \
                LANE_SIMD                                                   \
                for (int64_t j = 0; j < K; ++j) acc[j] += a * ys[j];        \
            }                                                               \
        }                                                                   \
        T *xo = out + ((int64_t)col[g] - lo) * ld + j0;                     \
        for (int64_t j = 0; j < K; ++j) xo[j] += acc[j];                    \
    }                                                                       \
}                                                                           \
/* Block epilogue of the forward: scatter-add ytilde through the map.  */  \
INLINE void scatter_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,          \
        int64_t ysz, const int32_t *restrict bmap,                          \
        const T *restrict yt, T *restrict out, int64_t lo) {                \
    for (int64_t p = 0; p < ysz; ++p) {                                     \
        const int32_t t = bmap[p];                                          \
        if (t < 0) continue;                                                \
        T *yr = out + ((int64_t)t - lo) * ld + j0;                          \
        const T *ys = yt + p * ld + j0;                                     \
        LANE_SIMD                                                           \
        for (int64_t j = 0; j < K; ++j) yr[j] += ys[j];                     \
    }                                                                       \
}                                                                           \
/* Block prologue of the adjoint: gather ytilde through the map.  */       \
INLINE void gather_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,           \
        int64_t ysz, const int32_t *restrict bmap, const T *restrict Y,     \
        T *restrict yt) {                                                   \
    for (int64_t p = 0; p < ysz; ++p) {                                     \
        const int32_t t = bmap[p];                                          \
        T *ys = yt + p * ld + j0;                                           \
        const T *yr = Y + (int64_t)(t >= 0 ? t : 0) * ld + j0;              \
        LANE_SIMD                                                           \
        for (int64_t j = 0; j < K; ++j) ys[j] = t >= 0 ? yr[j] : (T)0;      \
    }                                                                       \
}                                                                           \
/* CSR forward of one row: Y[i, :] = sum of vals[p] * X[col[p], :].  */   \
INLINE void csr_fwd_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,          \
        int32_t p0, int32_t p1, const int32_t *restrict col,                \
        const T *restrict vals, const T *restrict X, T *restrict yr) {      \
    T acc[8];                                                               \
    for (int64_t j = 0; j < K; ++j) acc[j] = (T)0;                          \
    for (int32_t p = p0; p < p1; ++p) {                                     \
        const T a = vals[p];                                                \
        const T *xr = X + (int64_t)col[p] * ld + j0;                        \
        LANE_SIMD                                                           \
        for (int64_t j = 0; j < K; ++j) acc[j] += a * xr[j];                \
    }                                                                       \
    for (int64_t j = 0; j < K; ++j) yr[j0 + j] = acc[j];                    \
}                                                                           \
/* CSR adjoint of one row: scatter vals[p] * Y[i, :] into X[col[p], :]. */ \
INLINE void csr_adj_lanes_##SUF(int64_t K, int64_t ld, int64_t j0,          \
        int32_t p0, int32_t p1, const int32_t *restrict col,                \
        const T *restrict vals, const T *restrict yr, T *restrict out,      \
        int64_t lo) {                                                       \
    for (int32_t p = p0; p < p1; ++p) {                                     \
        const T a = vals[p];                                                \
        T *xo = out + ((int64_t)col[p] - lo) * ld + j0;                     \
        LANE_SIMD                                                           \
        for (int64_t j = 0; j < K; ++j) xo[j] += a * yr[j0 + j];            \
    }                                                                       \
}

DEFINE_LANE_KERNELS(f32, float)
DEFINE_LANE_KERNELS(f64, double)

/* ------------------------------------------------------------------ */
/* CSCV-M 1-D block kernel: packed nonzeros + per-CSCVE bitmask.        */
/* Hardware vexpand (AVX-512) when available, soft-vexpand otherwise.   */
/* Only the 1-D forward uses it; the lane kernels above serve every     */
/* stack, so their per-lane arithmetic does not depend on k.            */

#ifdef HAVE_VEXPAND
static inline void vexpand_fma_f32(float *yt, const float *pv, uint32_t mask,
                                   float xv, int64_t s_vvec) {
    const __m512 xvv = _mm512_set1_ps(xv);
    for (int64_t k = 0; k < s_vvec; k += 16) {
        const int chunk = (s_vvec - k) >= 16 ? 16 : (int)(s_vvec - k);
        const __mmask16 vm =
            chunk == 16 ? (__mmask16)0xFFFF : (__mmask16)((1u << chunk) - 1u);
        const __mmask16 em = (__mmask16)((mask >> k) & vm);
        const __m512 vals = _mm512_maskz_expandloadu_ps(em, pv);
        __m512 yv = _mm512_maskz_loadu_ps(vm, yt + k);
        yv = _mm512_fmadd_ps(xvv, vals, yv);
        _mm512_mask_storeu_ps(yt + k, vm, yv);
        pv += _mm_popcnt_u32((unsigned)em);
    }
}

static inline void vexpand_fma_f64(double *yt, const double *pv, uint32_t mask,
                                   double xv, int64_t s_vvec) {
    const __m512d xvv = _mm512_set1_pd(xv);
    for (int64_t k = 0; k < s_vvec; k += 8) {
        const int chunk = (s_vvec - k) >= 8 ? 8 : (int)(s_vvec - k);
        const __mmask8 vm =
            chunk == 8 ? (__mmask8)0xFF : (__mmask8)((1u << chunk) - 1u);
        const __mmask8 em = (__mmask8)((mask >> k) & vm);
        const __m512d vals = _mm512_maskz_expandloadu_pd(em, pv);
        __m512d yv = _mm512_maskz_loadu_pd(vm, yt + k);
        yv = _mm512_fmadd_pd(xvv, vals, yv);
        _mm512_mask_storeu_pd(yt + k, vm, yv);
        pv += _mm_popcnt_u32((unsigned)em);
    }
}
#endif

/* One (column, start, voff) triple per VxG; s_vxg masks per VxG with
 * empty CSCVE slots holding mask 0 — the VxG-level index compression the
 * paper credits for the 0.25x index volume. */
#define DEFINE_CSCV_M_BLOCK(SUF, T)                                         \
static void cscv_m_block_##SUF(int64_t num_vxg, int64_t s_vxg,              \
                               int64_t s_vvec, const int32_t *vxg_col,      \
                               const int32_t *vxg_start,                    \
                               const int64_t *vxg_voff,                     \
                               const uint32_t *vxg_masks, const T *packed,  \
                               const T *x, T *ytilde) {                     \
    for (int64_t g = 0; g < num_vxg; ++g) {                                 \
        const T xv = x[vxg_col[g]];                                         \
        const T *pv = packed + vxg_voff[g];                                 \
        T *yt0 = ytilde + vxg_start[g];                                     \
        const uint32_t *gm = vxg_masks + g * s_vxg;                         \
        for (int64_t e = 0; e < s_vxg; ++e) {                               \
            const uint32_t mask = gm[e];                                    \
            if (!mask) continue;                                            \
            T *yt = yt0 + e * s_vvec;                                       \
            CSCV_M_EXPAND_##SUF                                             \
            pv += POPCOUNT32(mask);                                         \
        }                                                                   \
    }                                                                       \
}

#ifdef __GNUC__
#define POPCOUNT32(x) __builtin_popcount((unsigned)(x))
#else
static inline int popcount32_sw(uint32_t v) {
    int c = 0;
    while (v) { v &= v - 1; ++c; }
    return c;
}
#define POPCOUNT32(x) popcount32_sw(x)
#endif

#ifdef HAVE_VEXPAND
#define CSCV_M_EXPAND_f32 vexpand_fma_f32(yt, pv, mask, xv, s_vvec);
#define CSCV_M_EXPAND_f64 vexpand_fma_f64(yt, pv, mask, xv, s_vvec);
#else
/* soft-vexpand: scalar expansion of packed values against the mask */
#define CSCV_M_SOFT_EXPAND                                                  \
        int64_t p = 0;                                                      \
        for (int64_t k = 0; k < s_vvec; ++k) {                              \
            if (mask & (1u << k)) {                                         \
                yt[k] += xv * pv[p];                                        \
                ++p;                                                        \
            }                                                               \
        }
#define CSCV_M_EXPAND_f32 CSCV_M_SOFT_EXPAND
#define CSCV_M_EXPAND_f64 CSCV_M_SOFT_EXPAND
#endif

DEFINE_CSCV_M_BLOCK(f32, float)
DEFINE_CSCV_M_BLOCK(f64, double)

/* ------------------------------------------------------------------ */
/* CSCV chunk workers: the per-block pipeline of Algorithm 3 over the   */
/* blocks [b0, b1) of one chunk, into that chunk's private output.      */
/*                                                                      */
/* Layouts (built by repro.core.builder):                               */
/*   blk_vxg_ptr[num_blocks+1] : VxG ranges per block                   */
/*   vxg_col[g]   : global x index of the VxG's column                  */
/*   vxg_start[g] : offset into the block's ytilde scratch              */
/*   blk_ysize[b] : ytilde length of block b                            */
/*   blk_map_ptr[num_blocks+1], map[] : ytilde pos -> global y (or -1)  */
/* ytilde holds k lanes per slot (slot-major), so the reorder through   */
/* the map moves contiguous k-vectors.                                  */
/*                                                                      */
/* Forward: zero ytilde, stream the VxGs as contiguous FMAs, scatter-   */
/* add through the map.  Adjoint (x = A^T y, CT back-projection; the    */
/* paper's future work): gather ytilde through the map — the forward    */
/* reorder run in reverse — then one contiguous dot product per VxG.    */

#define DEFINE_CSCV_CHUNKS(SUF, T)                                          \
static void z_fwd_chunk_##SUF(const void *vctx, int64_t b0, int64_t b1,     \
                              void *vpriv, int64_t lo) {                    \
    const cscv_ctx *c = (const cscv_ctx *)vctx;                             \
    const int64_t k = c->k;                                                 \
    const T *values = (const T *)c->values, *X = (const T *)c->in;          \
    T *out = (T *)vpriv;                                                    \
    T *yt = (T *)malloc((size_t)(c->max_ysize * k) * sizeof(T));            \
    for (int64_t b = b0; b < b1; ++b) {                                     \
        const int64_t ysz = c->blk_ysize[b];                                \
        const int64_t g0 = c->blk_vxg_ptr[b], g1 = c->blk_vxg_ptr[b + 1];   \
        const int32_t *bmap = c->map + c->blk_map_ptr[b];                   \
        memset(yt, 0, (size_t)(ysz * k) * sizeof(T));                       \
        LANES(k, Z_FWD_##SUF)                                               \
        LANES(k, SCATTER_##SUF)                                             \
    }                                                                       \
    free(yt);                                                               \
}                                                                           \
static void z_adj_chunk_##SUF(const void *vctx, int64_t b0, int64_t b1,     \
                              void *vpriv, int64_t lo) {                    \
    const cscv_ctx *c = (const cscv_ctx *)vctx;                             \
    const int64_t k = c->k;                                                 \
    const T *values = (const T *)c->values, *Y = (const T *)c->in;          \
    T *out = (T *)vpriv;                                                    \
    T *yt = (T *)malloc((size_t)(c->max_ysize * k) * sizeof(T));            \
    for (int64_t b = b0; b < b1; ++b) {                                     \
        const int64_t ysz = c->blk_ysize[b];                                \
        const int64_t g0 = c->blk_vxg_ptr[b], g1 = c->blk_vxg_ptr[b + 1];   \
        const int32_t *bmap = c->map + c->blk_map_ptr[b];                   \
        LANES(k, GATHER_##SUF)                                              \
        LANES(k, Z_ADJ_##SUF)                                               \
    }                                                                       \
    free(yt);                                                               \
}                                                                           \
static void m_fwd_chunk_##SUF(const void *vctx, int64_t b0, int64_t b1,     \
                              void *vpriv, int64_t lo) {                    \
    const cscv_ctx *c = (const cscv_ctx *)vctx;                             \
    const int64_t k = c->k;                                                 \
    const T *packed = (const T *)c->values, *X = (const T *)c->in;          \
    T *out = (T *)vpriv;                                                    \
    T *yt = (T *)malloc((size_t)(c->max_ysize * k) * sizeof(T));            \
    for (int64_t b = b0; b < b1; ++b) {                                     \
        const int64_t ysz = c->blk_ysize[b];                                \
        const int64_t g0 = c->blk_vxg_ptr[b], g1 = c->blk_vxg_ptr[b + 1];   \
        const int32_t *bmap = c->map + c->blk_map_ptr[b];                   \
        memset(yt, 0, (size_t)(ysz * k) * sizeof(T));                       \
        LANES(k, M_FWD_##SUF)                                               \
        LANES(k, SCATTER_##SUF)                                             \
    }                                                                       \
    free(yt);                                                               \
}                                                                           \
static void m_fwd1_chunk_##SUF(const void *vctx, int64_t b0, int64_t b1,    \
                               void *vpriv, int64_t lo) {                   \
    const cscv_ctx *c = (const cscv_ctx *)vctx;                             \
    const T *packed = (const T *)c->values, *x = (const T *)c->in;          \
    T *out = (T *)vpriv;                                                    \
    T *yt = (T *)malloc((size_t)c->max_ysize * sizeof(T));                  \
    for (int64_t b = b0; b < b1; ++b) {                                     \
        const int64_t ysz = c->blk_ysize[b];                                \
        const int64_t g0 = c->blk_vxg_ptr[b], g1 = c->blk_vxg_ptr[b + 1];   \
        const int32_t *bmap = c->map + c->blk_map_ptr[b];                   \
        memset(yt, 0, (size_t)ysz * sizeof(T));                             \
        cscv_m_block_##SUF(g1 - g0, c->s_vxg, c->s_vvec, c->vxg_col + g0,   \
                           c->vxg_start + g0, c->vxg_voff + g0,             \
                           c->vxg_masks + g0 * c->s_vxg, packed, x, yt);    \
        scatter_lanes_##SUF(1, 1, 0, ysz, bmap, yt, out, lo);               \
    }                                                                       \
    free(yt);                                                               \
}                                                                           \
static void m_adj_chunk_##SUF(const void *vctx, int64_t b0, int64_t b1,     \
                              void *vpriv, int64_t lo) {                    \
    const cscv_ctx *c = (const cscv_ctx *)vctx;                             \
    const int64_t k = c->k;                                                 \
    const T *packed = (const T *)c->values, *Y = (const T *)c->in;          \
    T *out = (T *)vpriv;                                                    \
    T *yt = (T *)malloc((size_t)(c->max_ysize * k) * sizeof(T));            \
    for (int64_t b = b0; b < b1; ++b) {                                     \
        const int64_t ysz = c->blk_ysize[b];                                \
        const int64_t g0 = c->blk_vxg_ptr[b], g1 = c->blk_vxg_ptr[b + 1];   \
        const int32_t *bmap = c->map + c->blk_map_ptr[b];                   \
        LANES(k, GATHER_##SUF)                                              \
        LANES(k, M_ADJ_##SUF)                                               \
    }                                                                       \
    free(yt);                                                               \
}

/* LANES bodies: the lane kernels applied to block b of a chunk worker. */
#define Z_FWD(SUF, K, LD, J0)                                               \
    z_fwd_lanes_##SUF(K, LD, J0, g1 - g0, c->vxg_len, c->vxg_col + g0,      \
                      c->vxg_start + g0, values + g0 * c->vxg_len, X, yt)
#define Z_ADJ(SUF, K, LD, J0)                                               \
    z_adj_lanes_##SUF(K, LD, J0, g1 - g0, c->vxg_len, c->vxg_col + g0,      \
                      c->vxg_start + g0, values + g0 * c->vxg_len, yt,      \
                      out, lo)
#define M_FWD(SUF, K, LD, J0)                                               \
    m_fwd_lanes_##SUF(K, LD, J0, g1 - g0, c->s_vxg, c->s_vvec,              \
                      c->vxg_col + g0, c->vxg_start + g0, c->vxg_voff + g0, \
                      c->vxg_masks + g0 * c->s_vxg, packed, X, yt)
#define M_ADJ(SUF, K, LD, J0)                                               \
    m_adj_lanes_##SUF(K, LD, J0, g1 - g0, c->s_vxg, c->s_vvec,              \
                      c->vxg_col + g0, c->vxg_start + g0, c->vxg_voff + g0, \
                      c->vxg_masks + g0 * c->s_vxg, packed, yt, out, lo)
#define SCATTER(SUF, K, LD, J0)                                             \
    scatter_lanes_##SUF(K, LD, J0, ysz, bmap, yt, out, lo)
#define GATHER(SUF, K, LD, J0)                                              \
    gather_lanes_##SUF(K, LD, J0, ysz, bmap, Y, yt)

#define Z_FWD_f32(K, LD, J0) Z_FWD(f32, K, LD, J0)
#define Z_FWD_f64(K, LD, J0) Z_FWD(f64, K, LD, J0)
#define Z_ADJ_f32(K, LD, J0) Z_ADJ(f32, K, LD, J0)
#define Z_ADJ_f64(K, LD, J0) Z_ADJ(f64, K, LD, J0)
#define M_FWD_f32(K, LD, J0) M_FWD(f32, K, LD, J0)
#define M_FWD_f64(K, LD, J0) M_FWD(f64, K, LD, J0)
#define M_ADJ_f32(K, LD, J0) M_ADJ(f32, K, LD, J0)
#define M_ADJ_f64(K, LD, J0) M_ADJ(f64, K, LD, J0)
#define SCATTER_f32(K, LD, J0) SCATTER(f32, K, LD, J0)
#define SCATTER_f64(K, LD, J0) SCATTER(f64, K, LD, J0)
#define GATHER_f32(K, LD, J0) GATHER(f32, K, LD, J0)
#define GATHER_f64(K, LD, J0) GATHER(f64, K, LD, J0)

DEFINE_CSCV_CHUNKS(f32, float)
DEFINE_CSCV_CHUNKS(f64, double)

/* ------------------------------------------------------------------ */
/* Exported CSCV drivers.  Stacks are row-major: X (n, k), Y (m, k).    */
/* Every driver overwrites its output.  chunk_span holds output rows    */
/* for the forward and output columns (pixels) for the adjoint.         */

#define CSCV_Z_ARGS(T)                                                      \
        const int64_t *blk_vxg_ptr, const int32_t *vxg_col,                 \
        const int32_t *vxg_start, const T *values, int64_t vxg_len,         \
        const int64_t *blk_ysize, const int64_t *blk_map_ptr,               \
        const int32_t *map, int64_t max_ysize
#define CSCV_M_ARGS(T)                                                      \
        const int64_t *blk_vxg_ptr, const int32_t *vxg_col,                 \
        const int32_t *vxg_start, const int64_t *vxg_voff,                  \
        const uint32_t *vxg_masks, const T *packed, int64_t s_vxg,          \
        int64_t s_vvec, const int64_t *blk_ysize,                           \
        const int64_t *blk_map_ptr, const int32_t *map, int64_t max_ysize
#define CHUNK_ARGS                                                          \
        int64_t nchunks, const int64_t *chunk_ptr, const int64_t *chunk_span
#define Z_CTX(K, IN)                                                        \
    const cscv_ctx ctx = {blk_vxg_ptr, vxg_col, vxg_start, values, NULL,    \
                          NULL, vxg_len, 0, 0, blk_ysize, blk_map_ptr,      \
                          map, max_ysize, K, IN}
#define M_CTX(K, IN)                                                        \
    const cscv_ctx ctx = {blk_vxg_ptr, vxg_col, vxg_start, packed,          \
                          vxg_voff, vxg_masks, s_vxg * s_vvec, s_vxg,       \
                          s_vvec, blk_ysize, blk_map_ptr, map, max_ysize,   \
                          K, IN}

#define DEFINE_CSCV_DRIVERS(SUF, T)                                         \
EXPORT void cscv_z_spmm_##SUF(int64_t m, int64_t k, CSCV_Z_ARGS(T),         \
                              CHUNK_ARGS, const T *X, T *Y, int nthreads) { \
    Z_CTX(k, X);                                                            \
    run_chunks_##SUF(m, k, nchunks, chunk_ptr, chunk_span, Y, nthreads,     \
                     z_fwd_chunk_##SUF, &ctx);                              \
}                                                                           \
EXPORT void cscv_z_spmv_##SUF(int64_t m, CSCV_Z_ARGS(T), CHUNK_ARGS,        \
                              const T *x, T *y, int nthreads) {             \
    cscv_z_spmm_##SUF(m, 1, blk_vxg_ptr, vxg_col, vxg_start, values,        \
                      vxg_len, blk_ysize, blk_map_ptr, map, max_ysize,      \
                      nchunks, chunk_ptr, chunk_span, x, y, nthreads);      \
}                                                                           \
EXPORT void cscv_z_tspmm_##SUF(int64_t n, int64_t k, CSCV_Z_ARGS(T),        \
                               CHUNK_ARGS, const T *Y, T *X, int nthreads) {\
    Z_CTX(k, Y);                                                            \
    run_chunks_##SUF(n, k, nchunks, chunk_ptr, chunk_span, X, nthreads,     \
                     z_adj_chunk_##SUF, &ctx);                              \
}                                                                           \
EXPORT void cscv_m_spmv_##SUF(int64_t m, CSCV_M_ARGS(T), CHUNK_ARGS,        \
                              const T *x, T *y, int nthreads) {             \
    M_CTX(1, x);                                                            \
    run_chunks_##SUF(m, 1, nchunks, chunk_ptr, chunk_span, y, nthreads,     \
                     m_fwd1_chunk_##SUF, &ctx);                             \
}                                                                           \
EXPORT void cscv_m_spmm_##SUF(int64_t m, int64_t k, CSCV_M_ARGS(T),         \
                              CHUNK_ARGS, const T *X, T *Y, int nthreads) { \
    M_CTX(k, X);                                                            \
    run_chunks_##SUF(m, k, nchunks, chunk_ptr, chunk_span, Y, nthreads,     \
                     m_fwd_chunk_##SUF, &ctx);                              \
}                                                                           \
EXPORT void cscv_m_tspmm_##SUF(int64_t n, int64_t k, CSCV_M_ARGS(T),        \
                               CHUNK_ARGS, const T *Y, T *X, int nthreads) {\
    M_CTX(k, Y);                                                            \
    run_chunks_##SUF(n, k, nchunks, chunk_ptr, chunk_span, X, nthreads,     \
                     m_adj_chunk_##SUF, &ctx);                              \
}

DEFINE_CSCV_DRIVERS(f32, float)
DEFINE_CSCV_DRIVERS(f64, double)

/* ------------------------------------------------------------------ */
/* CSR SpMM: Y = A X with X (n, k) and Y (m, k), both row-major.        */
/* Each nonzero streams once and fans out across the k RHS lanes; rows  */
/* never share an output, so threads split the rows statically.        */

#define CSR_FWD(SUF, K, LD, J0)                                             \
    csr_fwd_lanes_##SUF(K, LD, J0, row_ptr[i], row_ptr[i + 1], col_idx,     \
                        vals, X, Y + i * k)
#define CSR_FWD_f32(K, LD, J0) CSR_FWD(f32, K, LD, J0)
#define CSR_FWD_f64(K, LD, J0) CSR_FWD(f64, K, LD, J0)

#define DEFINE_CSR_SPMM(SUF, T)                                             \
EXPORT void csr_spmm_##SUF(int64_t m, int64_t k, const int32_t *row_ptr,    \
                           const int32_t *col_idx, const T *vals,           \
                           const T *X, T *Y) {                              \
    _Pragma("omp parallel for schedule(static)")                            \
    for (int64_t i = 0; i < m; ++i) {                                       \
        LANES(k, CSR_FWD_##SUF)                                             \
    }                                                                       \
}

DEFINE_CSR_SPMM(f32, float)
DEFINE_CSR_SPMM(f64, double)

/* ------------------------------------------------------------------ */
/* CSR transpose SpMM: X = A^T Y, Y (m, k) -> X (n, k).  Rows scatter   */
/* into shared columns, so the row chunks follow the same fixed-order   */
/* reduction as the CSCV drivers (chunk_span: output columns).          */

typedef struct {
    const int32_t *row_ptr;
    const int32_t *col_idx;
    const void *vals;
    const void *in;
    int64_t k;
} csr_ctx;

#define CSR_ADJ(SUF, K, LD, J0)                                             \
    csr_adj_lanes_##SUF(K, LD, J0, c->row_ptr[i], c->row_ptr[i + 1],        \
                        c->col_idx, vals, Y + i * k, out, lo)
#define CSR_ADJ_f32(K, LD, J0) CSR_ADJ(f32, K, LD, J0)
#define CSR_ADJ_f64(K, LD, J0) CSR_ADJ(f64, K, LD, J0)

#define DEFINE_CSR_TSPMM(SUF, T)                                            \
static void csr_adj_chunk_##SUF(const void *vctx, int64_t r0, int64_t r1,   \
                                void *vpriv, int64_t lo) {                  \
    const csr_ctx *c = (const csr_ctx *)vctx;                               \
    const int64_t k = c->k;                                                 \
    const T *vals = (const T *)c->vals, *Y = (const T *)c->in;              \
    T *out = (T *)vpriv;                                                    \
    for (int64_t i = r0; i < r1; ++i) {                                     \
        LANES(k, CSR_ADJ_##SUF)                                             \
    }                                                                       \
}                                                                           \
EXPORT void csr_tspmm_##SUF(int64_t n, int64_t k, const int32_t *row_ptr,   \
                            const int32_t *col_idx, const T *vals,          \
                            CHUNK_ARGS, const T *Y, T *X, int nthreads) {   \
    const csr_ctx ctx = {row_ptr, col_idx, vals, Y, k};                     \
    run_chunks_##SUF(n, k, nchunks, chunk_ptr, chunk_span, X, nthreads,     \
                     csr_adj_chunk_##SUF, &ctx);                            \
}

DEFINE_CSR_TSPMM(f32, float)
DEFINE_CSR_TSPMM(f64, double)

/* ------------------------------------------------------------------ */
/* SPC5-style beta(1,c) row-block kernel: per block one row id, a       */
/* bitmask over c consecutive columns, packed values (no padding).      */

#ifdef HAVE_VEXPAND
static inline float spc5_dot_f32(const float *pv, const float *xp,
                                 uint32_t mask, int64_t width) {
    __m512 acc = _mm512_setzero_ps();
    for (int64_t k = 0; k < width; k += 16) {
        const int chunk = (width - k) >= 16 ? 16 : (int)(width - k);
        const __mmask16 vm =
            chunk == 16 ? (__mmask16)0xFFFF : (__mmask16)((1u << chunk) - 1u);
        const __mmask16 em = (__mmask16)((mask >> k) & vm);
        const __m512 vals = _mm512_maskz_expandloadu_ps(em, pv);
        const __m512 xv = _mm512_maskz_loadu_ps(em, xp + k);
        acc = _mm512_fmadd_ps(vals, xv, acc);
        pv += _mm_popcnt_u32((unsigned)em);
    }
    return _mm512_reduce_add_ps(acc);
}

static inline double spc5_dot_f64(const double *pv, const double *xp,
                                  uint32_t mask, int64_t width) {
    __m512d acc = _mm512_setzero_pd();
    for (int64_t k = 0; k < width; k += 8) {
        const int chunk = (width - k) >= 8 ? 8 : (int)(width - k);
        const __mmask8 vm =
            chunk == 8 ? (__mmask8)0xFF : (__mmask8)((1u << chunk) - 1u);
        const __mmask8 em = (__mmask8)((mask >> k) & vm);
        const __m512d vals = _mm512_maskz_expandloadu_pd(em, pv);
        const __m512d xv = _mm512_maskz_loadu_pd(em, xp + k);
        acc = _mm512_fmadd_pd(vals, xv, acc);
        pv += _mm_popcnt_u32((unsigned)em);
    }
    return _mm512_reduce_add_pd(acc);
}
#else
#define DEFINE_SPC5_DOT(SUF, T)                                             \
static inline T spc5_dot_##SUF(const T *pv, const T *xp, uint32_t mask,     \
                               int64_t width) {                             \
    T acc = (T)0;                                                           \
    int64_t p = 0;                                                          \
    for (int64_t k = 0; k < width; ++k) {                                   \
        if (mask & (1u << k)) {                                             \
            acc += pv[p] * xp[k];                                           \
            ++p;                                                            \
        }                                                                   \
    }                                                                       \
    return acc;                                                             \
}
DEFINE_SPC5_DOT(f32, float)
DEFINE_SPC5_DOT(f64, double)
#endif

#define DEFINE_SPC5(SUF, T)                                                 \
EXPORT void spc5_spmv_##SUF(int64_t num_blocks, const int32_t *blk_row,     \
                            const int32_t *blk_col, const uint32_t *masks,  \
                            const int64_t *voff, const T *packed,           \
                            int64_t blk_width, const T *x, T *y,            \
                            int64_t m) {                                    \
    memset(y, 0, (size_t)m * sizeof(T));                                    \
    for (int64_t b = 0; b < num_blocks; ++b) {                              \
        y[blk_row[b]] += spc5_dot_##SUF(packed + voff[b], x + blk_col[b],   \
                                        masks[b], blk_width);               \
    }                                                                       \
}

DEFINE_SPC5(f32, float)
DEFINE_SPC5(f64, double)


/* ------------------------------------------------------------------ */
/* Projector sweep kernels: geometry -> COO triplets for a view range.  */
/*                                                                      */
/* Each kernel fills caller-allocated (rows, cols, vals) buffers with   */
/* the nonzeros of views [v0, v1) and returns how many it wrote, or -1  */
/* when `cap` would overflow (the Python side allocates from a          */
/* conservative per-view bound, so -1 means a bug, not a retry).        */
/* Kernels are single-threaded per call and hold no global state: the   */
/* Python sweep partitions the view axis over a thread pool and ctypes  */
/* releases the GIL for the duration of each call.  All arithmetic is   */
/* double precision regardless of the target matrix dtype; the sweep    */
/* casts values once at the end.                                        */
/*                                                                      */
/* Geometry conventions mirror geometry/parallel_beam.py: pixel (i, j)  */
/* has centre x = (j - (n-1)/2) ps, y = ((n-1)/2 - i) ps; detector bin  */
/* b covers s in [(b - B/2) ds, (b + 1 - B/2) ds); sinogram row =       */
/* view * B + bin; pixel column = i * n + j.                            */

/* Trapezoid footprint CDF — the closed form of projector_strip.py,
 * kept region-by-region identical so C and NumPy values agree to
 * rounding. */
static double trapezoid_cdf(double t, double r1, double r2,
                            double h, double ramp_w) {
    if (t >= r2) return 1.0;
    if (t <= -r2) return 0.0;
    if (t < -r1) return 0.5 * h / ramp_w * (t + r2) * (t + r2);
    if (t <= r1) return 0.5 * h * (r2 - r1) + h * (t + r1);
    return 1.0 - 0.5 * h / ramp_w * (r2 - t) * (r2 - t);
}

EXPORT int64_t pixel_footprint_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg,
        double pixel_size, double bin_spacing,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double half = (n - 1) / 2.0;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double theta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double ct = cos(theta), st = sin(theta);
        const int64_t row0 = v * num_bins;
        for (int64_t i = 0; i < n; ++i) {
            const double y = (half - i) * pixel_size;
            for (int64_t j = 0; j < n; ++j) {
                const double x = (j - half) * pixel_size;
                const double s = x * ct + y * st;
                const double f = s / bin_spacing + num_bins / 2.0 - 0.5;
                const double b0 = floor(f);
                const double w1 = f - b0;
                const int64_t b = (int64_t)b0;
                const int64_t col = i * n + j;
                /* lower bin, weight 1 - w1 */
                if (b >= 0 && b < num_bins && 1.0 - w1 > 0.0) {
                    if (w >= cap) return -1;
                    rows[w] = row0 + b;
                    cols[w] = col;
                    vals[w] = (1.0 - w1) * pixel_size;
                    ++w;
                }
                /* upper bin, weight w1 */
                if (b + 1 >= 0 && b + 1 < num_bins && w1 > 0.0) {
                    if (w >= cap) return -1;
                    rows[w] = row0 + b + 1;
                    cols[w] = col;
                    vals[w] = w1 * pixel_size;
                    ++w;
                }
            }
        }
    }
    return w;
}

EXPORT int64_t strip_footprint_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg,
        double pixel_size, double bin_spacing,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double eps = 1e-12;
    const double half = (n - 1) / 2.0;
    const double ps = pixel_size, ds = bin_spacing;
    const double area_per_ds = ps * ps / ds;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double theta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double ct = cos(theta), st = sin(theta);
        const double a = fabs(ct) * ps, b = fabs(st) * ps;
        const double r1 = fabs(a - b) / 2.0, r2 = (a + b) / 2.0;
        const double h = 1.0 / (r1 + r2);
        const double ramp_w = fmax(r2 - r1, 1e-300);
        const int64_t span = (int64_t)ceil(2.0 * r2 / ds) + 1;
        const int64_t row0 = v * num_bins;
        for (int64_t i = 0; i < n; ++i) {
            const double y = (half - i) * ps;
            for (int64_t j = 0; j < n; ++j) {
                const double x = (j - half) * ps;
                const double s = x * ct + y * st;
                const int64_t first =
                    (int64_t)floor((s - r2) / ds + num_bins / 2.0);
                double prev =
                    trapezoid_cdf((first - num_bins / 2.0) * ds - s,
                                  r1, r2, h, ramp_w);
                const int64_t col = i * n + j;
                for (int64_t k = 0; k < span; ++k) {
                    const double edge =
                        (first + k + 1 - num_bins / 2.0) * ds - s;
                    const double chi = trapezoid_cdf(edge, r1, r2, h, ramp_w);
                    const double val = (chi - prev) * area_per_ds;
                    prev = chi;
                    const int64_t bin = first + k;
                    if (val > eps && bin >= 0 && bin < num_bins) {
                        if (w >= cap) return -1;
                        rows[w] = row0 + bin;
                        cols[w] = col;
                        vals[w] = val;
                        ++w;
                    }
                }
            }
        }
    }
    return w;
}

EXPORT int64_t siddon_trace_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg,
        double pixel_size, double bin_spacing,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double ps = pixel_size;
    const double half = n * ps / 2.0;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double theta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double ct = cos(theta), st = sin(theta);
        const double dx = -st, dy = ct;
        for (int64_t bin = 0; bin < num_bins; ++bin) {
            const double s = (bin + 0.5 - num_bins / 2.0) * bin_spacing;
            const double ox = s * ct, oy = s * st;
            /* box clip, same order and tolerances as _trace_ray */
            double t_lo = -1e300, t_hi = 1e300;
            int miss = 0;
            const double o2[2] = {ox, oy}, d2[2] = {dx, dy};
            for (int axis = 0; axis < 2; ++axis) {
                const double o = o2[axis], dd = d2[axis];
                if (fabs(dd) < 1e-15) {
                    if (o < -half || o > half) { miss = 1; break; }
                } else {
                    double t0 = (-half - o) / dd, t1 = (half - o) / dd;
                    if (t0 > t1) { const double tmp = t0; t0 = t1; t1 = tmp; }
                    if (t0 > t_lo) t_lo = t0;
                    if (t1 < t_hi) t_hi = t1;
                }
            }
            if (miss || t_hi <= t_lo) continue;
            /* Merge the ascending x- and y-crossing parameter streams
             * (tx_k = ((-half + k ps) - ox) / dx and likewise ty) between
             * t_lo and t_hi; each merged segment lies in one pixel,
             * classified by its midpoint exactly like the NumPy tracer. */
            const int have_x = fabs(dx) > 1e-15, have_y = fabs(dy) > 1e-15;
            int64_t kx = dx > 0 ? 0 : n, ky = dy > 0 ? 0 : n;
            const int64_t sx = dx > 0 ? 1 : -1, sy = dy > 0 ? 1 : -1;
            double next_x = 1e300, next_y = 1e300;
            if (have_x) {
                while (kx >= 0 && kx <= n) {
                    const double t = ((-half + kx * ps) - ox) / dx;
                    if (t > t_lo) { if (t < t_hi) next_x = t; break; }
                    kx += sx;
                }
            }
            if (have_y) {
                while (ky >= 0 && ky <= n) {
                    const double t = ((-half + ky * ps) - oy) / dy;
                    if (t > t_lo) { if (t < t_hi) next_y = t; break; }
                    ky += sy;
                }
            }
            const int64_t row = v * num_bins + bin;
            double t_prev = t_lo;
            for (;;) {
                double t_cur = t_hi;
                if (next_x < t_cur) t_cur = next_x;
                if (next_y < t_cur) t_cur = next_y;
                const double seg = t_cur - t_prev;
                if (seg > 1e-12) {
                    const double mid = (t_prev + t_cur) / 2.0;
                    const double mx = ox + mid * dx, my = oy + mid * dy;
                    const int64_t j = (int64_t)floor((mx + half) / ps);
                    const int64_t ib = (int64_t)floor((my + half) / ps);
                    const int64_t i = (n - 1) - ib; /* rows from the top */
                    if (j >= 0 && j < n && i >= 0 && i < n) {
                        if (w >= cap) return -1;
                        rows[w] = row;
                        cols[w] = i * n + j;
                        vals[w] = seg;
                        ++w;
                    }
                }
                if (t_cur >= t_hi) break;
                t_prev = t_cur;
                if (next_x == t_cur) {
                    kx += sx;
                    next_x = 1e300;
                    if (have_x && kx >= 0 && kx <= n) {
                        const double t = ((-half + kx * ps) - ox) / dx;
                        if (t < t_hi) next_x = t;
                    }
                }
                if (next_y == t_cur) {
                    ky += sy;
                    next_y = 1e300;
                    if (have_y && ky >= 0 && ky <= n) {
                        const double t = ((-half + ky * ps) - oy) / dy;
                        if (t < t_hi) next_y = t;
                    }
                }
            }
        }
    }
    return w;
}

EXPORT int64_t fan_strip_views_f64(
        int64_t n, int64_t num_bins,
        double delta_angle_deg, double start_angle_deg, double pixel_size,
        double source_radius, double fan_angle_deg,
        int64_t v0, int64_t v1, int64_t cap,
        int64_t *rows, int64_t *cols, double *vals) {
    const double deg2rad = 0.017453292519943295;
    const double pi = 3.141592653589793;
    const double eps = 1e-12;
    const double half = (n - 1) / 2.0;
    const double ps = pixel_size;
    const double pitch = fan_angle_deg * deg2rad / num_bins;
    const double halfdiag = ps * 1.4142135623730951 / 2.0;
    int64_t w = 0;
    for (int64_t v = v0; v < v1; ++v) {
        const double beta = (start_angle_deg + delta_angle_deg * v) * deg2rad;
        const double srcx = source_radius * cos(beta);
        const double srcy = source_radius * sin(beta);
        const double central = beta + pi;
        const int64_t row0 = v * num_bins;
        for (int64_t i = 0; i < n; ++i) {
            const double y = (half - i) * ps;
            for (int64_t j = 0; j < n; ++j) {
                const double x = (j - half) * ps;
                const double ddx = x - srcx, ddy = y - srcy;
                /* signed fan angle, wrapped to (-pi, pi] like numpy mod */
                double g = atan2(ddy, ddx) - central;
                g = fmod(g + pi, 2.0 * pi);
                if (g < 0) g += 2.0 * pi;
                g -= pi;
                const double dist = hypot(ddx, ddy);
                const double wa = atan2(halfdiag, dist);
                const double f_lo = (g - wa) / pitch + num_bins / 2.0;
                const double f_hi = (g + wa) / pitch + num_bins / 2.0;
                const int64_t first = (int64_t)floor(f_lo);
                const double width = fmax(f_hi - f_lo, eps);
                const int64_t span = (int64_t)ceil(f_hi - f_lo) + 1;
                const int64_t col = i * n + j;
                for (int64_t k = 0; k < span; ++k) {
                    const int64_t b = first + k;
                    double overlap =
                        fmin(f_hi, (double)(b + 1)) - fmax(f_lo, (double)b);
                    if (overlap < 0.0) overlap = 0.0;
                    const double val = overlap / width * ps;
                    if (val > eps && b >= 0 && b < num_bins) {
                        if (w >= cap) return -1;
                        rows[w] = row0 + b;
                        cols[w] = col;
                        vals[w] = val;
                        ++w;
                    }
                }
            }
        }
    }
    return w;
}

/* ------------------------------------------------------------------ */
/* Utility: OpenMP thread control.  The blocked CSCV drivers receive an
 * explicit nthreads argument, but the plain `omp parallel for` kernels
 * (CSR/CSC/ELL SpMV, CSR SpMM) run at the library-wide default -- which
 * ignores `runtime.threads` unless the host process sets it here.       */

EXPORT int kernels_omp_max_threads(void) {
#ifdef _OPENMP
    return omp_get_max_threads();
#else
    return 1;
#endif
}

EXPORT void kernels_set_omp_threads(int nthreads) {
#ifdef _OPENMP
    if (nthreads >= 1) omp_set_num_threads(nthreads);
#else
    (void)nthreads;
#endif
}

EXPORT int kernels_abi_version(void) { return 7; }
