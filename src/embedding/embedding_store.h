#ifndef TENET_EMBEDDING_EMBEDDING_STORE_H_
#define TENET_EMBEDDING_EMBEDDING_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/dependency_health.h"
#include "common/status.h"
#include "kb/types.h"

namespace tenet {
namespace embedding {

// Dense, contiguous storage of one fixed-dimension vector per KB concept —
// the in-process analogue of the paper's memory-mapped PyTorch-BigGraph
// array (Sec. 6.1): obtaining a vector is O(1) pointer arithmetic, and the
// pairwise relatedness used by the coherence graph is plain cosine
// similarity (Equations 3-5).
//
// Build phase: write through MutableVector, then Finalize().
// Query phase: Vector() / Cosine() / GatherUnit().
//
// Each row is stored once, as floats, beside one double L2 norm per row
// (computed by Finalize or LoadMatrix).  GatherUnit and Cosine write the
// unit row double(v[d]) / norm on the fly (zero rows stay zero), then
// Cosine is a pure dot product over unit rows, computed by the fixed
// blocked DotUnit reduction (dot_kernel.h) — the same kernel the coherence
// graph's batched path runs over gathered rows, so per-pair and batched
// similarities are bit-identical.  At 32 dimensions a row costs 128 + 8
// bytes; DESIGN.md §10 has the measurement.
class EmbeddingStore {
 public:
  EmbeddingStore(int dimension, int32_t num_entities,
                 int32_t num_predicates);

  int dimension() const { return dimension_; }
  int32_t num_entities() const { return num_entities_; }
  int32_t num_predicates() const { return num_predicates_; }

  /// Writable view of the vector of `ref`.  Only before Finalize().
  std::span<float> MutableVector(kb::ConceptRef ref);

  /// Read-only view of the raw vector of `ref`.
  std::span<const float> Vector(kb::ConceptRef ref) const;

  /// Computes the row norms; must be called once after all writes.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Bulk load + finalize: copies `count_floats` floats from `matrix`
  /// (row-major, entities then predicates; any alignment — the snapshot
  /// loader points this straight at an mmapped file) into the matrix and
  /// computes the row norms, so a snapshot load pays one copy and one pass
  /// instead of per-row reads.  `count_floats` must equal
  /// dimension() * (num_entities() + num_predicates()).  DataLoss on
  /// non-finite payloads (a NaN row would silently poison every cosine);
  /// the store is left un-finalized on error.
  Status LoadMatrix(const void* matrix, size_t count_floats);

  /// Cosine similarity in [-1, 1]; zero vectors yield 0.  One
  /// embedding/fetch operation — a fault-point probe, recorded in
  /// `outcomes` when non-null — per call; the batched path below is the
  /// cheap way to fetch a whole document's worth.
  double Cosine(kb::ConceptRef a, kb::ConceptRef b,
                DependencyOutcomes* outcomes = nullptr) const;

  /// The paper's global semantic distance 1 - cos (Equations 3-5),
  /// clamped to [0, 2].
  double CosineDistance(kb::ConceptRef a, kb::ConceptRef b) const {
    return 1.0 - Cosine(a, b);
  }

  /// Batched fetch: writes the unit rows of `refs` into `out` (row-major,
  /// refs.size() x dimension(), caller-allocated).  The whole gather is a
  /// single dependency operation — one fault-point probe and one record in
  /// `outcomes`, however many rows.  A fired fault behaves like every
  /// vector missing: `out` is zero-filled and all similarities over it are
  /// 0, the same value Cosine() reports under a fired fault.
  void GatherUnit(std::span<const kb::ConceptRef> refs, double* out,
                  DependencyOutcomes* outcomes = nullptr) const;

 private:
  size_t Offset(kb::ConceptRef ref) const;
  size_t RowIndex(kb::ConceptRef ref) const;
  /// The one norm pass behind Finalize and LoadMatrix; false when a row
  /// holds a non-finite value.
  bool ComputeNorms();
  /// Writes the unit row of `ref` to `out` (dimension() doubles).
  void WriteUnit(kb::ConceptRef ref, double* out) const;

  int dimension_;
  int32_t num_entities_;
  int32_t num_predicates_;
  std::vector<float> data_;   // entities first, then predicates
  std::vector<double> norm_;  // one L2 norm per row, by Finalize()
  bool finalized_ = false;
};

}  // namespace embedding
}  // namespace tenet

#endif  // TENET_EMBEDDING_EMBEDDING_STORE_H_
