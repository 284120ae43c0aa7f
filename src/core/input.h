// The OCT problem input ⟨Q, W⟩: weighted candidate categories over a finite
// item universe, plus the practical extensions the paper's algorithms
// support — per-set thresholds and per-item branch bounds.

#ifndef OCT_CORE_INPUT_H_
#define OCT_CORE_INPUT_H_

#include <string>
#include <vector>

#include "core/item_set.h"
#include "util/status.h"

namespace oct {

/// Index of a candidate set within an OctInput.
using SetId = uint32_t;

/// One candidate category: an item set that the solution should ideally
/// contain, its importance weight, and optional metadata.
struct CandidateSet {
  ItemSet items;
  /// Non-negative importance (e.g., average daily query frequency).
  double weight = 1.0;
  /// Per-set threshold override; negative means "use the variant default"
  /// (Section 2.2, "Non-uniform thresholds").
  double delta_override = -1.0;
  /// Provenance label (search query text / existing-category name); used for
  /// category labeling, never by the optimization itself.
  std::string label;
};

/// An OCT instance: the universe size and the weighted candidate sets.
class OctInput {
 public:
  OctInput() = default;
  /// `universe_size` is |U|; items in all sets must be < universe_size.
  explicit OctInput(size_t universe_size) : universe_size_(universe_size) {}

  /// Appends a candidate set; returns its SetId.
  SetId Add(CandidateSet set);
  SetId Add(ItemSet items, double weight, std::string label = "");

  size_t universe_size() const { return universe_size_; }
  void set_universe_size(size_t n) { universe_size_ = n; }

  size_t num_sets() const { return sets_.size(); }
  const CandidateSet& set(SetId id) const { return sets_[id]; }
  CandidateSet& mutable_set(SetId id) { return sets_[id]; }
  const std::vector<CandidateSet>& sets() const { return sets_; }

  /// Sum of all weights — the loose upper bound used to normalize scores
  /// (Section 5.3).
  double TotalWeight() const;

  /// Per-item upper bound on the number of distinct branches the item may
  /// appear on. Empty means "1 for every item" (the ubiquitous e-commerce
  /// default). Values must be >= 1.
  const std::vector<uint32_t>& item_bounds() const { return item_bounds_; }
  void set_item_bounds(std::vector<uint32_t> bounds);
  /// Bound of a single item (1 when bounds are unset).
  uint32_t ItemBound(ItemId id) const;
  /// True when some item has a bound exceeding 1.
  bool HasRelaxedBounds() const;

  /// Checks structural validity: items within the universe, finite
  /// non-negative weights, thresholds in (0,1], non-empty sets, bounds >= 1.
  Status Validate() const;

  /// Union of all input sets (items that occur somewhere in Q).
  ItemSet AllItems() const;

 private:
  size_t universe_size_ = 0;
  std::vector<CandidateSet> sets_;
  std::vector<uint32_t> item_bounds_;
};

}  // namespace oct

#endif  // OCT_CORE_INPUT_H_
