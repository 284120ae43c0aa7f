#include "kernel/item_set_index.h"

#include <algorithm>
#include <numeric>

#include "obs/trace.h"
#include "util/logging.h"

namespace oct {
namespace kernel {

void ItemPostings::Assign(std::span<const CandidateSet> sets,
                          size_t universe) {
  OCT_CHECK_LE(sets.size(), size_t{UINT32_MAX});
  // Count each item's sets one slot ahead, so the prefix sum turns the
  // counts into each list's start.
  offsets_.assign(universe + 1, 0);
  size_t total = 0;
  for (const CandidateSet& cs : sets) {
    for (ItemId item : cs.items) ++offsets_[size_t{item} + 1];
    total += cs.items.size();
  }
  OCT_CHECK_LE(total, size_t{UINT32_MAX});
  std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());
  // Fill in set order, so every list is ascending. Filling advances each
  // item's start to the next item's; shifting by one slot restores them.
  sets_.resize(total);
  for (size_t q = 0; q < sets.size(); ++q) {
    for (ItemId item : sets[q].items) {
      sets_[offsets_[item]++] = static_cast<SetId>(q);
    }
  }
  std::copy_backward(offsets_.begin(), offsets_.end() - 1, offsets_.end());
  offsets_[0] = 0;
}

ItemSetIndex ItemSetIndex::Build(const OctInput& input) {
  OCT_SPAN("kernel/build_index");
  ItemSetIndex index;
  index.input_ = &input;
  index.postings_.Assign(input.sets(), input.universe_size());
  if (input.HasRelaxedBounds()) {
    const size_t universe = input.universe_size();
    index.strict_item_.resize(universe);
    for (ItemId item = 0; item < universe; ++item) {
      index.strict_item_[item] = input.ItemBound(item) == 1;
    }
  }
  return index;
}

}  // namespace kernel
}  // namespace oct
