// Post-processing operations shared by the tree-construction algorithms:
//
//  - AddIntermediateCategories: lines 21-23 of Algorithm 1 — recombine
//    partitioned item sets by inserting intermediate parents over pairs of
//    intersecting child categories.
//  - CondenseTree: lines 24-25 — remove items that appear only in uncovered
//    sets, then remove non-covering categories (keeping, for each covered
//    set, the covering category of highest precision).
//  - AddMiscCategory: line 26 — a fresh child of the root with every item
//    of the universe that is assigned nowhere.

#ifndef OCT_CORE_TREE_OPS_H_
#define OCT_CORE_TREE_OPS_H_

#include "core/category_tree.h"
#include "core/input.h"
#include "core/similarity.h"

namespace oct {
namespace kernel {
class ItemSetIndex;
}  // namespace kernel

/// For every non-leaf category with more than two children, repeatedly adds
/// an intermediate parent over the pair of child categories whose associated
/// input sets share the largest fraction of the smaller set, until two
/// children remain or no two child sets intersect. An intermediate category
/// is associated with the union of its children's sets and may later be
/// paired again. Returns the number of intermediate categories added.
size_t AddIntermediateCategories(const OctInput& input, CategoryTree* tree);

/// Statistics from CondenseTree (for logging and tests).
struct CondenseStats {
  size_t items_removed = 0;
  size_t categories_removed = 0;
};

/// Removes items that only appear in uncovered input sets from all
/// categories, then removes every category (other than the root) that is
/// not the designated best cover of any input set, over the input `index`
/// was built on. Category removal re-attaches children and merges direct
/// items into the parent, so full item sets of surviving ancestors are
/// unchanged and the score may only improve; but the lifted children's
/// depths feed the best-cover tie-break, so annotate again before reading
/// the tree's covered sets. `exclude_cover` removes one node from best-cover
/// candidacy (see ScoreTree) — used by per-component builders to keep the
/// component-local root, whose item set is the undiluted component union,
/// from stealing covers and condensing away the component's own top
/// categories.
CondenseStats CondenseTree(const kernel::ItemSetIndex& index,
                           const Similarity& sim, CategoryTree* tree,
                           NodeId exclude_cover = kInvalidNode);

/// Label of the category AddMiscCategory creates. Routing, tree diffs and
/// the evaluation metrics recognize the catch-all by it.
inline constexpr char kMiscLabel[] = "misc";

/// Adds a child of the root labeled kMiscLabel containing all universe items
/// with no placement anywhere in the tree. Returns the new node id, or
/// kInvalidNode when no item was unassigned.
NodeId AddMiscCategory(const OctInput& input, CategoryTree* tree);

}  // namespace oct

#endif  // OCT_CORE_TREE_OPS_H_
