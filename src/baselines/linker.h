#ifndef TENET_BASELINES_LINKER_H_
#define TENET_BASELINES_LINKER_H_

#include <string_view>

#include "common/result.h"
#include "core/link_context.h"
#include "core/mention.h"
#include "core/pipeline.h"

namespace tenet {
namespace baselines {

// Common interface of every linking system in the evaluation (TENET and
// the five baselines of Sec. 6.1).  All systems run on the same substrates
// (KB, embeddings, gazetteer, extraction); what differs is the mention
// universe they consider and the disambiguation policy — exactly the
// quantities Tables 3/4 isolate.
//
// Per-request knobs (deadline, trace) travel in the core::LinkContext.
// Systems without budget support — the paper's baselines — ignore the
// context's deadline and run normally, which is exactly their published
// behaviour; TENET honours both the deadline and the trace.  Every system
// counts its dependency operations into the context's outcome record.
class Linker {
 public:
  virtual ~Linker() = default;

  /// Display name used in the experiment tables.
  virtual std::string_view name() const = 0;

  /// False for systems without relation linking (QKBfly, MINTREE).
  virtual bool links_relations() const { return true; }

  /// False for systems without a dedicated disambiguation stage
  /// (Falcon, EARL), which the paper excludes from Figure 6(b).
  virtual bool has_disambiguation_stage() const { return true; }

  /// End-to-end linking of a raw document.  The serving layer uses the
  /// context both for per-request deadlines and to route requests straight
  /// down the degradation ladder (an already-expired deadline).
  virtual Result<core::LinkingResult> LinkDocument(
      std::string_view document_text,
      const core::LinkContext& context = {}) const = 0;

  /// Disambiguation with the mention universe given (Figure 6(b)).
  virtual Result<core::LinkingResult> LinkMentionSet(
      core::MentionSet mentions,
      const core::LinkContext& context = {}) const = 0;
};

}  // namespace baselines
}  // namespace tenet

#endif  // TENET_BASELINES_LINKER_H_
