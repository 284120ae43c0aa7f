#include "core/input.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace oct {

SetId OctInput::Add(CandidateSet set) {
  sets_.push_back(std::move(set));
  return static_cast<SetId>(sets_.size() - 1);
}

SetId OctInput::Add(ItemSet items, double weight, std::string label) {
  CandidateSet cs;
  cs.items = std::move(items);
  cs.weight = weight;
  cs.label = std::move(label);
  return Add(std::move(cs));
}

double OctInput::TotalWeight() const {
  double total = 0.0;
  for (const auto& s : sets_) total += s.weight;
  return total;
}

void OctInput::set_item_bounds(std::vector<uint32_t> bounds) {
  item_bounds_ = std::move(bounds);
}

uint32_t OctInput::ItemBound(ItemId id) const {
  if (item_bounds_.empty()) return 1;
  OCT_DCHECK_LT(id, item_bounds_.size());
  return item_bounds_[id];
}

bool OctInput::HasRelaxedBounds() const {
  return std::any_of(item_bounds_.begin(), item_bounds_.end(),
                     [](uint32_t b) { return b > 1; });
}

Status OctInput::Validate() const {
  if (!item_bounds_.empty() && item_bounds_.size() != universe_size_) {
    return Status::InvalidArgument(
        "item_bounds size must equal universe_size");
  }
  for (uint32_t b : item_bounds_) {
    if (b < 1) return Status::InvalidArgument("item bounds must be >= 1");
  }
  for (size_t i = 0; i < sets_.size(); ++i) {
    const auto& s = sets_[i];
    if (s.items.empty()) {
      return Status::InvalidArgument("input set " + std::to_string(i) +
                                     " is empty");
    }
    if (!std::isfinite(s.weight) || s.weight < 0.0) {
      return Status::InvalidArgument("input set " + std::to_string(i) +
                                     " has a negative or non-finite weight");
    }
    if (s.delta_override >= 0.0 &&
        (s.delta_override <= 0.0 || s.delta_override > 1.0)) {
      return Status::InvalidArgument("input set " + std::to_string(i) +
                                     " has threshold outside (0,1]");
    }
    if (!s.items.empty() &&
        s.items.items().back() >= universe_size_) {
      return Status::InvalidArgument("input set " + std::to_string(i) +
                                     " contains item outside the universe");
    }
  }
  return Status::OK();
}

ItemSet OctInput::AllItems() const {
  ItemSet all;
  for (const auto& s : sets_) all.UnionInPlace(s.items);
  return all;
}

}  // namespace oct
