#include "kernel/item_set_index.h"

#include "obs/trace.h"

namespace oct {
namespace kernel {

ItemSetIndex ItemSetIndex::Build(const OctInput& input) {
  OCT_SPAN("kernel/build_index");
  ItemSetIndex index;
  index.input_ = &input;
  index.inverted_ = input.BuildInvertedIndex();
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
