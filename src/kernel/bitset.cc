#include "kernel/bitset.h"

#include "util/logging.h"

namespace oct {
namespace kernel {

BitSet::BitSet(size_t universe_size)
    : universe_size_(universe_size), words_((universe_size + 63) / 64, 0) {}

void BitSet::SetAll(const ItemSet& set) {
  for (ItemId id : set) {
    OCT_DCHECK_LT(id, universe_size_);
    words_[id >> 6] |= uint64_t{1} << (id & 63);
  }
}

void BitSet::ClearAll(const ItemSet& set) {
  for (ItemId id : set) {
    OCT_DCHECK_LT(id, universe_size_);
    words_[id >> 6] &= ~(uint64_t{1} << (id & 63));
  }
}

size_t BitSet::IntersectionCount(const ItemSet& other) const {
  size_t count = 0;
  for (ItemId id : other) {
    OCT_DCHECK_LT(id, universe_size_);
    count += (words_[id >> 6] >> (id & 63)) & 1;
  }
  return count;
}

}  // namespace kernel
}  // namespace oct
