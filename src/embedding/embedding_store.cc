#include "embedding/embedding_store.h"

#include <cmath>
#include <cstring>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "embedding/dot_kernel.h"

namespace tenet {
namespace embedding {

EmbeddingStore::EmbeddingStore(int dimension, int32_t num_entities,
                               int32_t num_predicates)
    : dimension_(dimension),
      num_entities_(num_entities),
      num_predicates_(num_predicates),
      data_(static_cast<size_t>(dimension) *
                (static_cast<size_t>(num_entities) + num_predicates),
            0.0f) {
  TENET_CHECK_GT(dimension, 0);
  TENET_CHECK_GE(num_entities, 0);
  TENET_CHECK_GE(num_predicates, 0);
}

size_t EmbeddingStore::RowIndex(kb::ConceptRef ref) const {
  TENET_CHECK(ref.valid());
  if (ref.is_entity()) {
    TENET_CHECK_LT(ref.id, num_entities_);
    return static_cast<size_t>(ref.id);
  }
  TENET_CHECK_LT(ref.id, num_predicates_);
  return static_cast<size_t>(num_entities_) + ref.id;
}

size_t EmbeddingStore::Offset(kb::ConceptRef ref) const {
  return RowIndex(ref) * static_cast<size_t>(dimension_);
}

std::span<float> EmbeddingStore::MutableVector(kb::ConceptRef ref) {
  TENET_CHECK(!finalized_) << "write after Finalize";
  return std::span<float>(data_.data() + Offset(ref), dimension_);
}

std::span<const float> EmbeddingStore::Vector(kb::ConceptRef ref) const {
  return std::span<const float>(data_.data() + Offset(ref), dimension_);
}

bool EmbeddingStore::ComputeNorms() {
  const size_t count = static_cast<size_t>(num_entities_) + num_predicates_;
  norm_.resize(count);
  // A float squared is exact in double and a row's sum stays far inside
  // the double range, so a norm is finite exactly when its row is.
  bool finite = true;
  for (size_t i = 0; i < count; ++i) {
    const float* v = data_.data() + i * dimension_;
    double sum = 0.0;
    for (int d = 0; d < dimension_; ++d) sum += double{v[d]} * v[d];
    norm_[i] = std::sqrt(sum);
    finite = finite && std::isfinite(norm_[i]);
  }
  return finite;
}

void EmbeddingStore::WriteUnit(kb::ConceptRef ref, double* out) const {
  const size_t row = RowIndex(ref);
  const float* v = data_.data() + row * dimension_;
  const double norm = norm_[row];
  if (norm <= 0.0) {  // zero rows stay zero: cosine 0 by design
    std::memset(out, 0, static_cast<size_t>(dimension_) * sizeof(double));
    return;
  }
  for (int d = 0; d < dimension_; ++d) out[d] = double{v[d]} / norm;
}

void EmbeddingStore::Finalize() {
  TENET_CHECK(!finalized_) << "Finalize called twice";
  ComputeNorms();
  finalized_ = true;
}

Status EmbeddingStore::LoadMatrix(const void* matrix, size_t count_floats) {
  TENET_CHECK(!finalized_) << "LoadMatrix after Finalize";
  if (count_floats != data_.size()) {
    return Status::InvalidArgument("embedding matrix size mismatch");
  }
  // memcpy tolerates any source alignment — mmapped payloads start at a
  // file offset the format does not promise to be float-aligned.
  std::memcpy(data_.data(), matrix, count_floats * sizeof(float));
  if (!ComputeNorms()) return Status::DataLoss("non-finite embedding payload");
  finalized_ = true;
  return Status::Ok();
}

double EmbeddingStore::Cosine(kb::ConceptRef a, kb::ConceptRef b,
                              DependencyOutcomes* outcomes) const {
  TENET_CHECK(finalized_) << "Cosine before Finalize";
  // A fired fetch fault behaves like a missing vector: zero similarity,
  // the same value a genuinely absent (zero-norm) embedding yields.
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  if (outcomes != nullptr) {
    outcomes->Record(Dependency::kEmbeddingFetch, !faulted);
  }
  if (faulted) return 0.0;
  // Both unit rows go to the stack; only a store wider than any shipped
  // world (32 dimensions) takes the heap.
  constexpr int kStackDim = 64;
  double stack_rows[2 * kStackDim];
  std::vector<double> heap_rows;
  double* rows = stack_rows;
  if (dimension_ > kStackDim) {
    heap_rows.resize(2 * static_cast<size_t>(dimension_));
    rows = heap_rows.data();
  }
  WriteUnit(a, rows);
  WriteUnit(b, rows + dimension_);
  return ClampCosine(DotUnit(rows, rows + dimension_, dimension_));
}

void EmbeddingStore::GatherUnit(std::span<const kb::ConceptRef> refs,
                                double* out,
                                DependencyOutcomes* outcomes) const {
  TENET_CHECK(finalized_) << "GatherUnit before Finalize";
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  if (outcomes != nullptr) {
    outcomes->Record(Dependency::kEmbeddingFetch, !faulted);
  }
  if (faulted) {
    std::memset(out, 0, refs.size() * dimension_ * sizeof(double));
    return;
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    WriteUnit(refs[i], out + i * static_cast<size_t>(dimension_));
  }
}

}  // namespace embedding
}  // namespace tenet
