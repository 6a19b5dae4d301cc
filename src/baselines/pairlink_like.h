#ifndef TENET_BASELINES_PAIRLINK_LIKE_H_
#define TENET_BASELINES_PAIRLINK_LIKE_H_

#include "baselines/common.h"
#include "baselines/linker.h"

namespace tenet {
namespace baselines {

// Pair-Linking [Phan et al.] stand-in: collective entity disambiguation by
// greedily confirming the single most confident mention pair at a time
// ("two could be better than all").  It runs the pair-link rung's sweep
// (core/pair_link.h) over short-only mentions: pair confidence combines
// embedding relatedness with the candidates' local priors, and the exact
// cosine is only computed for pairs that reach the top of the queue.
// Leftovers are force-linked to their top-prior candidate (Pair-Linking
// cannot abstain).  Entity disambiguation only; no relation linking.
class PairlinkLike : public Linker {
 public:
  explicit PairlinkLike(BaselineSubstrate substrate)
      : substrate_(substrate) {}

  std::string_view name() const override { return "PairLink"; }
  bool links_relations() const override { return false; }

  Result<core::LinkingResult> LinkDocument(
      std::string_view document_text,
      const core::LinkContext& context = {}) const override;
  Result<core::LinkingResult> LinkMentionSet(
      core::MentionSet mentions,
      const core::LinkContext& context = {}) const override;

 private:
  BaselineSubstrate substrate_;
};

}  // namespace baselines
}  // namespace tenet

#endif  // TENET_BASELINES_PAIRLINK_LIKE_H_
