// WorkingSet: the cumulative truth the delta path maintains — every
// candidate set ever upserted and not yet removed, in stable *slots*.
//
// Slots are the delta subsystem's frame of reference:
//   - a query key maps to one slot for the working set's lifetime, so a
//     component signature (slot, version) pairs is stable across batches
//     even as other sets come and go;
//   - removals tombstone the slot (ids never shift);
//   - every content change bumps the slot's version, which is what the
//     DeltaBuilder's component cache keys on.
//
// The working set also owns the impact-analysis substrate: an
// item -> alive-slots inverted index kept as lists that every batch edits
// (kernel::ItemSetIndex builds the same map once, as a CSR), folded through
// kernel::UnionFind into intersection-graph components. Two sets can
// conflict, must-cover-together, or compete for an item only when they
// share an item — so a component is exactly the region of the conflict
// graph a change can reach, and the frontier of a delta batch is the set
// of components its touched slots land in.
//
// Single-writer: the DeltaBuilder/DeltaMaintainer applies batches from one
// thread (readers go through published TreeSnapshots, never this class).

#ifndef OCT_DELTA_WORKING_SET_H_
#define OCT_DELTA_WORKING_SET_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/input.h"
#include "delta/delta_log.h"

namespace oct {
namespace delta {

inline constexpr uint32_t kInvalidSlot = std::numeric_limits<uint32_t>::max();

/// What one ApplyBatch changed.
struct ApplyOpsResult {
  /// Slots whose content changed (sorted, unique). Tombstoned slots are
  /// included — their old component must rebuild without them.
  std::vector<uint32_t> touched_slots;
  size_t ops_applied = 0;
  /// Ops with no effect (remove of an unknown key, upsert with identical
  /// content, RemoveItem of an absent item).
  size_t ops_noop = 0;
};

class WorkingSet {
 public:
  explicit WorkingSet(size_t universe_size = 0)
      : universe_size_(universe_size), postings_(universe_size) {}

  /// Applies a drained batch in seq order. The universe grows monotonically
  /// to cover every upserted item (it never shrinks on RemoveItem — item
  /// ids are dense and stay reserved).
  ApplyOpsResult ApplyBatch(const DeltaBatch& batch);

  /// Ops that would transform this working set into `truth`: upserts for
  /// new/changed labels (in truth order), then removals for labels gone
  /// from it (in slot order). Keys are KeyForLabel(label); duplicate labels
  /// within one input are disambiguated by occurrence order. This is how a
  /// full query-log batch (the RebuildScheduler currency) feeds the delta
  /// path.
  std::vector<DeltaOp> DiffOps(const OctInput& truth) const;

  /// Grows the universe to at least `n` items (no-op when already there).
  /// Used to match a batch input's catalog universe so the misc category
  /// covers the same items a batch rebuild would.
  void EnsureUniverse(size_t n) {
    if (n > universe_size_) {
      universe_size_ = n;
      postings_.resize(n);
    }
  }

  size_t universe_size() const { return universe_size_; }
  size_t num_slots() const { return slots_.size(); }
  size_t num_alive() const { return num_alive_; }

  bool alive(uint32_t slot) const { return slots_[slot].alive; }
  const CandidateSet& set(uint32_t slot) const { return slots_[slot].set; }
  uint64_t version(uint32_t slot) const { return slots_[slot].version; }
  uint64_t key(uint32_t slot) const { return slots_[slot].key; }
  /// Slot of a query key; kInvalidSlot when never upserted.
  uint32_t SlotOfKey(uint64_t key) const;

  /// The cumulative OctInput: alive slots in ascending slot order. When
  /// `slot_to_index` is non-null it receives, per slot, the set's index in
  /// the materialized input (kInvalidSlot for tombstones) — the map splice
  /// uses to rebase per-component SetIds.
  OctInput Materialize(std::vector<uint32_t>* slot_to_index = nullptr) const;

  /// Intersection-graph components over the alive slots.
  struct Components {
    /// Per component: member slots, ascending. Components are ordered by
    /// their smallest slot — deterministic across runs.
    std::vector<std::vector<uint32_t>> members;
    /// Per slot: component index, kInvalidSlot for tombstones.
    std::vector<uint32_t> component_of;
  };
  Components ComputeComponents() const;

  /// Alive slots containing `item` (ascending). Empty for out-of-universe.
  const std::vector<uint32_t>& Postings(ItemId item) const;

 private:
  struct Slot {
    uint64_t key = 0;
    CandidateSet set;
    uint64_t version = 0;
    bool alive = false;
  };

  void AddPostings(uint32_t slot);
  void ErasePostings(uint32_t slot);
  bool ApplyOne(const DeltaOp& op, std::vector<uint32_t>* touched);

  size_t universe_size_ = 0;
  size_t num_alive_ = 0;
  std::vector<Slot> slots_;
  std::unordered_map<uint64_t, uint32_t> slot_of_key_;
  /// item -> alive slots containing it, each list ascending.
  std::vector<std::vector<uint32_t>> postings_;
};

}  // namespace delta
}  // namespace oct

#endif  // OCT_DELTA_WORKING_SET_H_
