#ifndef TENET_CORE_PAIR_LINK_H_
#define TENET_CORE_PAIR_LINK_H_

#include <functional>
#include <vector>

#include "common/deadline.h"
#include "core/coherence_graph.h"
#include "kb/types.h"

namespace tenet {
namespace core {

// Pair-linking (Phan et al., "Two Could Be Better Than All"; DESIGN.md
// §16): collective disambiguation by greedily confirming the single most
// confident mention pair at a time.  A pair of candidates (u, v) of two
// different mentions scores
//   kPairSimilarityWeight * sim(u, v)
//     + kPairPriorWeight * (P(u) + P(v)) / 2.
inline constexpr double kPairSimilarityWeight = 0.6;
inline constexpr double kPairPriorWeight = 0.4;

// One candidate concept of a mention: the concept, its prior P(c|m) and,
// when it was read off a coherence graph, its concept node id (else -1).
struct PairLinkCandidate {
  kb::ConceptRef ref;
  double prior = 0.0;
  int node = -1;
};

/// The candidates of every mention of `cg`, read off its concept nodes.
std::vector<std::vector<PairLinkCandidate>> GraphCandidates(
    const CoherenceGraph& cg);

/// Index of the highest-prior candidate (the first on ties), or -1 when
/// there is none.
int TopPriorCandidate(const std::vector<PairLinkCandidate>& candidates);

/// The similarity term of a pair score: the cosine of the two concepts,
/// however the caller obtains it.
using PairSimilarity = std::function<double(const PairLinkCandidate& u,
                                            const PairLinkCandidate& v)>;

struct PairSweepStats {
  /// Pairs the sweep confirmed.
  int pairs_confirmed = 0;
  /// The deadline expired before every mention was confirmed.
  bool deadline_hit = false;
};

/// The greedy sweep over `mentions` (ids into `candidates`; mentions
/// without candidates take no part).  Queue entries start at the
/// optimistic bound sim = 1, so `similarity` is only called for pairs that
/// reach the top of the queue; a popped exact entry dominates every bound
/// below it and is confirmed at once.  A confirmed mention only vouches
/// for pairs that agree with its candidate.  For each mention it confirms,
/// the sweep stores the candidate's index in (*pick)[m]; every other entry
/// of `pick` keeps what the caller put there, typically the
/// TopPriorCandidate.  Each pop checks `deadline`, and expiry stops the
/// sweep.  Deterministic: ties break on (mention, candidate) order, exact
/// entries first.
PairSweepStats SweepPairs(
    const std::vector<int>& mentions,
    const std::vector<std::vector<PairLinkCandidate>>& candidates,
    const PairSimilarity& similarity, const Deadline& deadline,
    std::vector<int>* pick);

}  // namespace core
}  // namespace tenet

#endif  // TENET_CORE_PAIR_LINK_H_
