#ifndef TENET_EMBEDDING_DOT_KERNEL_H_
#define TENET_EMBEDDING_DOT_KERNEL_H_

namespace tenet {
namespace embedding {

// The pairwise-similarity kernel of the coherence graph (Eqs. 3-5), over
// unit-normalized rows: cosine(a, b) is a pure dot product once both rows
// have been divided by their norms (EmbeddingStore writes each unit row
// from its float row and the norm Finalize() computed).
//
// DotUnit reduces in a fixed blocked, multi-accumulator order: eight
// independent double accumulators over stride-8 blocks, a scalar tail, and
// a fixed pairwise tree for the horizontal sum.  The independent
// accumulators are what lets the compiler map the loop onto SIMD lanes
// without -ffast-math (the reduction order is part of the function's
// contract), and the fixed order is what makes the result deterministic:
// every caller — the per-pair Cosine() path and the coherence builder's
// single-pass document sweep — gets bit-identical values for the same
// pair.
//
// The rows are double, not float: a unit row keeps full precision so the
// kernel's cosines stay within ~1e-14 of the historical
// dot(raw)/(norm*norm) arithmetic — close enough that no downstream
// near-tie (disambiguation order, candidate choice) ever flips.  Float
// unit rows halve the bandwidth but drift ~1e-6, which measurably changes
// linking decisions on tie-heavy corpora.
//
// `a` and `b` need not be aligned; `dim` may be any non-negative count.
double DotUnit(const double* a, const double* b, int dim);

/// Clamps a unit-row dot product to the cosine range [-1, 1] (rounding can
/// push |dot| a few ulps past 1).
inline double ClampCosine(double cosine) {
  if (cosine > 1.0) return 1.0;
  if (cosine < -1.0) return -1.0;
  return cosine;
}

}  // namespace embedding
}  // namespace tenet

#endif  // TENET_EMBEDDING_DOT_KERNEL_H_
