// CCT — the Clustering-based Category Tree algorithm (Algorithm 3,
// Section 4): embed the input sets by their similarity to every other set
// ("global context"), cluster the embeddings agglomeratively, use the
// dendrogram as the tree template (one leaf category per input set), then
// run the shared item-assignment procedure (Algorithm 2) and condense.

#ifndef OCT_CCT_CCT_H_
#define OCT_CCT_CCT_H_

#include <vector>

#include "cct/agglomerative.h"
#include "core/category_tree.h"
#include "core/input.h"
#include "core/item_assignment.h"
#include "core/similarity.h"
#include "fault/cancel.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace oct {
namespace kernel {
class ItemSetIndex;
}  // namespace kernel

namespace cct {

struct CctOptions {
  Linkage linkage = Linkage::kAverage;
  /// Disable to skip condensing — ablation knob.
  bool condense = true;
  /// Disable to bar the root from best-cover candidacy; see
  /// ctcr::CtcrOptions::root_cover_candidate.
  bool root_cover_candidate = true;
  /// Disable to skip the misc category (line 7). Per-component builders
  /// (oct::delta) add the universe-wide misc category exactly once on the
  /// spliced tree instead; see ctcr::CtcrOptions::add_misc_category.
  bool add_misc_category = true;
  /// Thread pool for the distance-matrix build (null: process default).
  ThreadPool* pool = nullptr;
  /// Prebuilt kernel::ItemSetIndex over the input (not owned; may be null,
  /// in which case CCT builds one for the run). The embeddings and
  /// condensing both read it; the resulting tree is identical either way.
  const kernel::ItemSetIndex* index = nullptr;
  /// Deadline/cancellation (not owned; may be null). On expiry the
  /// clustering fast-finishes its remaining merges and condensing is
  /// skipped; the result is always a valid, model-checked tree with
  /// `CctResult::status` reporting kDeadlineExceeded.
  const fault::CancelToken* cancel = nullptr;
};

struct CctResult {
  CategoryTree tree;
  AssignItemsStats assignment;
  double seconds_embed = 0.0;
  double seconds_cluster = 0.0;
  double seconds_assign = 0.0;
  /// OK, or kDeadlineExceeded when the build deadline expired and the tree
  /// is a (still valid) best-so-far result.
  Status status = Status::OK();
};

/// Runs CCT for any of the six variants. O(n^2) memory in the number of
/// input sets (the condensed distance matrix).
CctResult BuildCategoryTree(const OctInput& input, const Similarity& sim,
                            const CctOptions& options = {});

/// Converts a dendrogram over the input sets into a category tree: leaves
/// become categories dedicated to their input set, internal merge nodes
/// become unlabeled structural categories under the root. `cat_of` (if
/// non-null) receives the leaf category of each set.
CategoryTree TreeFromDendrogram(const OctInput& input,
                                const Dendrogram& dendrogram,
                                std::vector<NodeId>* cat_of);

}  // namespace cct
}  // namespace oct

#endif  // OCT_CCT_CCT_H_
