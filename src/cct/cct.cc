#include "cct/cct.h"

#include <string>

#include "cct/embedding.h"
#include "core/scoring.h"
#include "core/tree_ops.h"
#include "fault/failpoint.h"
#include "kernel/item_set_index.h"
#include "kernel/pairwise.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {
namespace cct {

CategoryTree TreeFromDendrogram(const OctInput& input,
                                const Dendrogram& dendrogram,
                                std::vector<NodeId>* cat_of) {
  const size_t n = dendrogram.num_leaves;
  OCT_CHECK_EQ(n, input.num_sets());
  CategoryTree tree;
  // Dendrogram node id -> tree node. Built top-down from the root merge.
  std::vector<NodeId> of(n + dendrogram.merges.size(), kInvalidNode);
  if (n == 0) {
    if (cat_of) cat_of->clear();
    return tree;
  }
  if (n == 1) {
    of[0] = tree.AddCategory(tree.root(), input.set(0).label, 0);
  } else {
    // The last merge is the top; attach it under the tree root, then expand
    // merges in reverse order (parents are created before children).
    of[dendrogram.RootId()] = tree.root();
    for (size_t k = dendrogram.merges.size(); k-- > 0;) {
      const auto& m = dendrogram.merges[k];
      const NodeId parent = of[n + k];
      OCT_DCHECK(parent != kInvalidNode);
      for (uint32_t child : {m.left, m.right}) {
        if (child < n) {
          const std::string& label = input.set(child).label;
          of[child] = tree.AddCategory(
              parent,
              label.empty() ? "C(q" + std::to_string(child) + ")" : label,
              static_cast<SetId>(child));
        } else {
          of[child] = tree.AddCategory(parent, "");
        }
      }
    }
  }
  if (cat_of) {
    cat_of->assign(n, kInvalidNode);
    for (SetId q = 0; q < n; ++q) (*cat_of)[q] = of[q];
  }
  return tree;
}

CctResult BuildCategoryTree(const OctInput& input, const Similarity& sim,
                            const CctOptions& options) {
  OCT_CHECK(input.Validate().ok()) << input.Validate().ToString();
  OCT_SPAN("cct/build_category_tree");
  static obs::Counter* runs =
      obs::MetricsRegistry::Default()->GetCounter("cct.runs");
  static obs::Histogram* embed_us =
      obs::MetricsRegistry::Default()->GetHistogram("cct.embed_us");
  static obs::Histogram* cluster_us =
      obs::MetricsRegistry::Default()->GetHistogram("cct.cluster_us");
  static obs::Histogram* assign_us =
      obs::MetricsRegistry::Default()->GetHistogram("cct.assign_us");
  runs->Increment();
  static obs::Counter* deadline_hits =
      obs::MetricsRegistry::Default()->GetCounter("cct.deadline_exceeded");
  CctResult result;
  result.status = OCT_FAILPOINT("cct.build");
  const size_t n = input.num_sets();

  // The item -> sets index the embeddings and condensing read (built here
  // once unless the caller supplied one).
  kernel::ItemSetIndex local_index;
  const kernel::ItemSetIndex* index = options.index;
  if (index == nullptr) {
    local_index = kernel::ItemSetIndex::Build(input);
    index = &local_index;
  }
  OCT_DCHECK(&index->input() == &input);

  // Line 1: embeddings.
  Timer timer;
  Embeddings emb;
  {
    OCT_SPAN("cct/embed");
    emb = EmbedInputSets(*index, sim);
  }
  result.seconds_embed = timer.ElapsedSeconds();
  embed_us->Record(result.seconds_embed * 1e6);

  // Lines 2-3: dendrogram -> tree template.
  timer.Reset();
  std::vector<NodeId> cat_of;
  {
    OCT_SPAN("cct/cluster");
    // Matrix filled by the parallel kernel (bit-identical to the serial
    // emb.Distance oracle — see kernel/pairwise.h); clustering unchanged.
    std::vector<float> dist = kernel::CondensedEuclideanDistances(
        emb.rows(), emb.squared_norms(), options.pool);
    const Dendrogram dendro = AgglomerativeClusterCondensed(
        n, std::move(dist), options.linkage, options.cancel);
    result.tree = TreeFromDendrogram(input, dendro, &cat_of);
  }
  result.seconds_cluster = timer.ElapsedSeconds();
  cluster_us->Record(result.seconds_cluster * 1e6);

  // Line 4: Algorithm 2 over all input sets (items land in leaf categories).
  timer.Reset();
  OCT_SPAN("cct/assign_items");
  AssignItemsOptions assign;
  assign.target_sets.resize(n);
  for (SetId q = 0; q < n; ++q) assign.target_sets[q] = q;
  assign.cat_of = cat_of;
  result.assignment = AssignItems(input, sim, assign, &result.tree);

  // Lines 5-6: condense — a refinement pass, shed first when the build
  // budget runs out. Line 7: misc category — always runs (model validity).
  const NodeId exclude_cover =
      options.root_cover_candidate ? kInvalidNode : result.tree.root();
  if (options.condense && !fault::Cancelled(options.cancel)) {
    CondenseTree(*index, sim, &result.tree, exclude_cover);
  }
  if (options.add_misc_category) AddMiscCategory(input, &result.tree);
  AnnotateCoveredSets(input, sim, &result.tree, exclude_cover);
  result.seconds_assign = timer.ElapsedSeconds();
  assign_us->Record(result.seconds_assign * 1e6);
  if (result.status.ok() && fault::Cancelled(options.cancel)) {
    result.status = options.cancel->status();
  }
  if (result.status.code() == StatusCode::kDeadlineExceeded) {
    deadline_hits->Increment();
  }
  OCT_DCHECK(result.tree.ValidateModel(input).ok())
      << result.tree.ValidateModel(input).ToString();
  return result;
}

}  // namespace cct
}  // namespace oct
