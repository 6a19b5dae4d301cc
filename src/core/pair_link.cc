#include "core/pair_link.h"

#include <algorithm>
#include <queue>
#include <tuple>

namespace tenet {
namespace core {

std::vector<std::vector<PairLinkCandidate>> GraphCandidates(
    const CoherenceGraph& cg) {
  std::vector<std::vector<PairLinkCandidate>> candidates(cg.num_mentions());
  for (int m = 0; m < cg.num_mentions(); ++m) {
    for (int node : cg.ConceptNodesOfMention(m)) {
      const CoherenceGraph::ConceptNode& cn = cg.concept_node(node);
      candidates[m].push_back(PairLinkCandidate{cn.ref, cn.prior, node});
    }
  }
  return candidates;
}

int TopPriorCandidate(const std::vector<PairLinkCandidate>& candidates) {
  int best = -1;
  for (int k = 0; k < static_cast<int>(candidates.size()); ++k) {
    if (best < 0 || candidates[k].prior > candidates[best].prior) best = k;
  }
  return best;
}

PairSweepStats SweepPairs(
    const std::vector<int>& mentions,
    const std::vector<std::vector<PairLinkCandidate>>& candidates,
    const PairSimilarity& similarity, const Deadline& deadline,
    std::vector<int>* pick) {
  std::vector<int> swept;
  for (int m : mentions) {
    if (!candidates[m].empty()) swept.push_back(m);
  }
  std::sort(swept.begin(), swept.end());

  struct Entry {
    double score;
    bool exact;
    int i, a, j, b;  // indices into `swept` / their candidate lists
  };
  auto worse = [](const Entry& x, const Entry& y) {
    if (x.score != y.score) return x.score < y.score;
    if (x.exact != y.exact) return y.exact;
    return std::tie(x.i, x.a, x.j, x.b) > std::tie(y.i, y.a, y.j, y.b);
  };
  auto prior_term = [](const PairLinkCandidate& u, const PairLinkCandidate& v) {
    return kPairPriorWeight * 0.5 * (u.prior + v.prior);
  };
  std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> queue(
      worse);
  for (size_t i = 0; i < swept.size(); ++i) {
    for (size_t j = i + 1; j < swept.size(); ++j) {
      const std::vector<PairLinkCandidate>& ci = candidates[swept[i]];
      const std::vector<PairLinkCandidate>& cj = candidates[swept[j]];
      for (size_t a = 0; a < ci.size(); ++a) {
        for (size_t b = 0; b < cj.size(); ++b) {
          queue.push(Entry{kPairSimilarityWeight + prior_term(ci[a], cj[b]),
                           /*exact=*/false, static_cast<int>(i),
                           static_cast<int>(a), static_cast<int>(j),
                           static_cast<int>(b)});
        }
      }
    }
  }

  PairSweepStats stats;
  std::vector<int> assigned(swept.size(), -1);
  size_t num_assigned = 0;
  while (!queue.empty() && num_assigned < swept.size()) {
    if (deadline.expired()) {
      stats.deadline_hit = true;
      break;
    }
    Entry e = queue.top();
    queue.pop();
    const bool i_done = assigned[e.i] >= 0;
    const bool j_done = assigned[e.j] >= 0;
    if (i_done && j_done) continue;
    if (i_done && assigned[e.i] != e.a) continue;
    if (j_done && assigned[e.j] != e.b) continue;
    if (!e.exact) {
      const PairLinkCandidate& u = candidates[swept[e.i]][e.a];
      const PairLinkCandidate& v = candidates[swept[e.j]][e.b];
      e.score = kPairSimilarityWeight * similarity(u, v) + prior_term(u, v);
      e.exact = true;
      queue.push(e);
      continue;
    }
    if (!i_done) {
      assigned[e.i] = e.a;
      ++num_assigned;
    }
    if (!j_done) {
      assigned[e.j] = e.b;
      ++num_assigned;
    }
    ++stats.pairs_confirmed;
  }

  for (size_t idx = 0; idx < swept.size(); ++idx) {
    if (assigned[idx] >= 0) (*pick)[swept[idx]] = assigned[idx];
  }
  return stats;
}

}  // namespace core
}  // namespace tenet
