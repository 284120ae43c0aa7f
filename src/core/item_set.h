// ItemSet: the fundamental set-of-items type of the OCT model.
//
// Items are dense 32-bit ids into a finite universe U. Sets are stored as
// sorted unique vectors; all set algebra is merge-based. Intersection
// *counting* (no materialization) is the hot path of conflict enumeration.
// The kernels (kernel::ItemSetIndex, kernel::BitSet) are scratch and
// acceleration structures over it; ItemSet stays the canonical
// representation.

#ifndef OCT_CORE_ITEM_SET_H_
#define OCT_CORE_ITEM_SET_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace oct {

/// Dense item identifier into the universe U = {0, ..., |U|-1}.
using ItemId = uint32_t;

/// An immutable-ish sorted set of items with merge-based set algebra.
class ItemSet {
 public:
  ItemSet() = default;

  /// Builds from arbitrary (possibly unsorted / duplicated) ids.
  explicit ItemSet(std::vector<ItemId> items);
  ItemSet(std::initializer_list<ItemId> items);

  /// Builds from a vector already known to be sorted and unique. Debug
  /// builds assert both properties (OCT_DCHECK); release builds trust the
  /// caller and skip the O(n) check.
  static ItemSet FromSorted(std::vector<ItemId> sorted_unique);

  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  const std::vector<ItemId>& items() const { return items_; }

  auto begin() const { return items_.begin(); }
  auto end() const { return items_.end(); }

  bool Contains(ItemId id) const;

  /// Number of shared items (no allocation).
  size_t IntersectionSize(const ItemSet& other) const;

  /// |this ∪ other| = |this| + |other| - |this ∩ other|.
  size_t UnionSize(const ItemSet& other) const {
    return size() + other.size() - IntersectionSize(other);
  }

  bool Intersects(const ItemSet& other) const;
  bool IsSubsetOf(const ItemSet& other) const;
  bool IsDisjointFrom(const ItemSet& other) const { return !Intersects(other); }

  ItemSet Intersect(const ItemSet& other) const;
  ItemSet Union(const ItemSet& other) const;
  ItemSet Difference(const ItemSet& other) const;

  /// In-place union (used by accumulation loops).
  void UnionInPlace(const ItemSet& other);

  /// Inserts a single item (no-op when present).
  void Insert(ItemId id);

  /// Removes a single item (no-op when absent).
  void Erase(ItemId id);

  bool operator==(const ItemSet& other) const { return items_ == other.items_; }
  bool operator!=(const ItemSet& other) const { return items_ != other.items_; }

  /// "{a, b, c}"-style rendering with numeric ids (for logs/tests).
  std::string ToString() const;

  /// Union of many sets (k-way merge via repeated doubling).
  static ItemSet UnionOf(const std::vector<const ItemSet*>& sets);

 private:
  std::vector<ItemId> items_;
};

}  // namespace oct

#endif  // OCT_CORE_ITEM_SET_H_
