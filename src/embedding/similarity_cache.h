#ifndef TENET_EMBEDDING_SIMILARITY_CACHE_H_
#define TENET_EMBEDDING_SIMILARITY_CACHE_H_

#include <cstdint>

namespace tenet {
namespace embedding {

// Inert stand-in for perfbench until ROADMAP item 1; GetStats() reads zero.
class SimilarityCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;

    double HitRate() const {
      int64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
  };

  Stats GetStats() const { return {}; }
};

}  // namespace embedding
}  // namespace tenet

#endif  // TENET_EMBEDDING_SIMILARITY_CACHE_H_
