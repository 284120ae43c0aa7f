// Nested-set (lft/rgt) encoding of a CategoryTree — the classic interval
// scheme relational taxonomies use (every node carries an interval
// [lft, rgt] that strictly contains the intervals of its descendants), laid
// out in pre-order so it doubles as the on-disk payload of the version log:
//
//   - pre-order position == compact NodeId == ascending-lft order, so the
//     subtree of node n is the *contiguous* id range [n, n + size(n)) and a
//     subtree read is one range scan — no pointer chasing, directly usable
//     on a cold, just-parsed snapshot;
//   - size(n) falls out of the interval: rgt - lft = 2*size - 1, so
//     SubtreeSpan / IsAncestor are O(1);
//   - direct items live in one CSR block in the same pre-order, so a
//     subtree's full item list is one contiguous slice.
//
// Encode/Decode round-trips exactly (modulo tombstones, which Encode skips
// like every serving path does): DecodeNestedSet(EncodeNestedSet(t))
// serializes identically to t via SerializeTree. Serialize/Parse is the
// version-log payload format ("octstore-nested v1").

#ifndef OCT_STORE_NESTED_SET_H_
#define OCT_STORE_NESTED_SET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/category_tree.h"
#include "util/status.h"

namespace oct {
namespace store {

/// A CategoryTree flattened into pre-order nested-set arrays. Index i in
/// every array is the compact NodeId of the i-th node in pre-order (the
/// root is 0).
struct NestedSetEncoding {
  /// Classic nested-set interval bounds, 1-based: lft[n] < lft[d] and
  /// rgt[d] < rgt[n] for every descendant d of n.
  std::vector<uint32_t> lft;
  std::vector<uint32_t> rgt;
  /// Edges from the root (root depth 0).
  std::vector<uint32_t> depth;
  /// Parent id; kInvalidNode for the root.
  std::vector<NodeId> parent;
  /// Candidate set each category was created for; kInvalidSet when none.
  std::vector<SetId> source_set;
  std::vector<std::string> label;
  /// Direct items in CSR layout: node n's direct items are
  /// items[item_offsets[n] .. item_offsets[n + 1]), ascending per node.
  std::vector<uint32_t> item_offsets;
  std::vector<ItemId> items;

  size_t num_nodes() const { return lft.size(); }
  size_t num_direct_items() const { return items.size(); }

  /// Nodes of the subtree rooted at `n`, as the contiguous id range
  /// [first, last). O(1): pre-order layout makes subtrees contiguous and
  /// the interval width encodes the subtree size.
  std::pair<NodeId, NodeId> SubtreeSpan(NodeId n) const {
    const uint32_t size = (rgt[n] - lft[n] + 1) / 2;
    return {n, n + size};
  }

  /// True when `a` is a proper ancestor of `b`. O(1) interval containment.
  bool IsAncestor(NodeId a, NodeId b) const {
    return lft[a] < lft[b] && rgt[b] < rgt[a];
  }
};

/// Flattens `tree` (alive nodes only; ids compacted exactly like
/// SerializeTree / TreeSnapshot do) into nested-set arrays.
NestedSetEncoding EncodeNestedSet(const CategoryTree& tree);

/// Rebuilds the CategoryTree an encoding came from. The result serializes
/// identically to the (compacted) original.
Result<CategoryTree> DecodeNestedSet(const NestedSetEncoding& encoding);

/// Structural validity: interval nesting, pre-order/lft agreement, parent
/// consistency, CSR monotonicity. Decode and the version log run this on
/// every parsed payload so a corrupt-but-CRC-valid record can never
/// install.
Status ValidateNestedSet(const NestedSetEncoding& encoding);

/// Renders the "octstore-nested v1" line format (the version-log payload):
///   octstore-nested v1
///   nodes <count> items <count>
///   n <lft> <rgt> <depth> <parent|-> <source_set|-> <label> : <item> ...
std::string SerializeNestedSet(const NestedSetEncoding& encoding);

/// Parses and validates an octstore-nested v1 document.
Result<NestedSetEncoding> ParseNestedSet(const std::string& text);

}  // namespace store
}  // namespace oct

#endif  // OCT_STORE_NESTED_SET_H_
