#include "embedding/embedding_store.h"

#include <cmath>
#include <cstring>

#include "common/dependency_health.h"
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
            0.0f),
      ops_("embedding/fetch") {
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

std::span<const double> EmbeddingStore::UnitVector(kb::ConceptRef ref) const {
  TENET_CHECK(finalized_) << "UnitVector before Finalize";
  return std::span<const double>(unit_data_.data() + Offset(ref), dimension_);
}

void EmbeddingStore::Finalize() {
  TENET_CHECK(!finalized_) << "Finalize called twice";
  size_t count = static_cast<size_t>(num_entities_) + num_predicates_;
  unit_data_.assign(data_.size(), 0.0);
  for (size_t i = 0; i < count; ++i) {
    const float* v = data_.data() + i * dimension_;
    double sum = 0.0;
    for (int d = 0; d < dimension_; ++d) sum += double{v[d]} * v[d];
    double norm = std::sqrt(sum);
    if (norm <= 0.0) continue;  // zero rows stay zero: cosine 0 by design
    double* unit = unit_data_.data() + i * dimension_;
    for (int d = 0; d < dimension_; ++d) {
      unit[d] = double{v[d]} / norm;
    }
  }
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
  size_t count = static_cast<size_t>(num_entities_) + num_predicates_;
  unit_data_.assign(data_.size(), 0.0);
  for (size_t i = 0; i < count; ++i) {
    const float* v = data_.data() + i * dimension_;
    double sum = 0.0;
    for (int d = 0; d < dimension_; ++d) {
      if (!std::isfinite(v[d])) {
        unit_data_.clear();
        return Status::DataLoss("non-finite embedding payload");
      }
      sum += double{v[d]} * v[d];
    }
    double norm = std::sqrt(sum);
    if (norm <= 0.0) continue;  // zero rows stay zero: cosine 0 by design
    double* unit = unit_data_.data() + i * dimension_;
    for (int d = 0; d < dimension_; ++d) {
      unit[d] = double{v[d]} / norm;
    }
  }
  finalized_ = true;
  return Status::Ok();
}

double EmbeddingStore::Cosine(kb::ConceptRef a, kb::ConceptRef b) const {
  TENET_CHECK(finalized_) << "Cosine before Finalize";
  // A fired fetch fault behaves like a missing vector: zero similarity,
  // the same value a genuinely absent (zero-norm) embedding yields.
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  TENET_OBSERVE_DEPENDENCY("embedding/fetch", !faulted);
  ops_.Record(!faulted);
  if (faulted) return 0.0;
  const double* ua = unit_data_.data() + Offset(a);
  const double* ub = unit_data_.data() + Offset(b);
  return ClampCosine(DotUnit(ua, ub, dimension_));
}

void EmbeddingStore::GatherUnit(std::span<const kb::ConceptRef> refs,
                                double* out) const {
  TENET_CHECK(finalized_) << "GatherUnit before Finalize";
  const bool faulted = TENET_FAULT_POINT("embedding/fetch");
  TENET_OBSERVE_DEPENDENCY("embedding/fetch", !faulted);
  ops_.Record(!faulted);
  const size_t row_bytes = static_cast<size_t>(dimension_) * sizeof(double);
  if (faulted) {
    std::memset(out, 0, refs.size() * row_bytes);
    return;
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    std::memcpy(out + i * static_cast<size_t>(dimension_),
                unit_data_.data() + Offset(refs[i]), row_bytes);
  }
}

}  // namespace embedding
}  // namespace tenet
