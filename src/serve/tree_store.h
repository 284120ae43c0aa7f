// TreeStore: the current-tree holder of the serving stack. The live
// TreeSnapshot sits behind an std::atomic<std::shared_ptr> (RCU style):
//
//   - Readers call Current() — an atomic load — and keep serving off the
//     shared_ptr they got, never taking a lock and never observing a
//     half-published tree. A reader mid-request keeps its snapshot alive
//     even if ten publishes happen meanwhile.
//   - Publish() builds the snapshot (off the read path), then swaps the
//     pointer in one atomic store. Writers serialize among themselves on a
//     mutex that readers never touch.
//
// The store retains the last K published versions so operators can diff any
// two retained revisions (the conservative-update metric of Section 2.3 via
// tree_diff) and roll back a bad publish without a rebuild.
//
// ThreadSanitizer builds (OCT_SANITIZE=thread) swap the atomic for a
// mutex-backed cell: libstdc++'s atomic<shared_ptr> guards its pointer with
// a lock bit whose reader-side unlock is memory_order_relaxed, a protocol
// TSan cannot model and reports as a race inside _Sp_atomic (benign on real
// hardware; the relaxed unlock is deliberate upstream). The fallback keeps
// the surrounding TreeStore/RebuildScheduler logic fully checkable instead
// of drowning every run in that one library-internal report.

#ifndef OCT_SERVE_TREE_STORE_H_
#define OCT_SERVE_TREE_STORE_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/tree_diff.h"
#include "serve/tree_snapshot.h"
#include "util/status.h"

#if defined(__SANITIZE_THREAD__)
#define OCT_SERVE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OCT_SERVE_TSAN 1
#endif
#endif

namespace oct {
namespace serve {

namespace detail {

/// Holder of the live snapshot pointer. Production builds use the lock-free
/// std::atomic<std::shared_ptr>; see the file comment for why TSan builds
/// substitute a mutex (which the tool models natively).
class SnapshotCell {
 public:
  std::shared_ptr<const TreeSnapshot> Load() const {
#ifdef OCT_SERVE_TSAN
    std::lock_guard<std::mutex> lock(mu_);
    return ptr_;
#else
    return ptr_.load(std::memory_order_acquire);
#endif
  }

  void Store(std::shared_ptr<const TreeSnapshot> next) {
#ifdef OCT_SERVE_TSAN
    std::lock_guard<std::mutex> lock(mu_);
    ptr_ = std::move(next);
#else
    ptr_.store(std::move(next), std::memory_order_release);
#endif
  }

 private:
#ifdef OCT_SERVE_TSAN
  mutable std::mutex mu_;
  std::shared_ptr<const TreeSnapshot> ptr_;
#else
  std::atomic<std::shared_ptr<const TreeSnapshot>> ptr_{nullptr};
#endif
};

}  // namespace detail

/// Summary row of one retained version (for dashboards/logs).
struct VersionInfo {
  TreeVersion version = 0;
  size_t num_categories = 0;
  size_t num_items = 0;
  double build_seconds = 0.0;
  std::string note;
};

class TreeStore {
 public:
  /// Retains the most recent `retain` published versions (min 1; the
  /// current version is always retained).
  explicit TreeStore(size_t retain = 4);

  TreeStore(const TreeStore&) = delete;
  TreeStore& operator=(const TreeStore&) = delete;

  /// The snapshot readers should serve from. Lock-free with respect to
  /// publishers; nullptr until the first Publish().
  std::shared_ptr<const TreeSnapshot> Current() const {
    return current_.Load();
  }

  /// Version of the current snapshot (0 before the first publish).
  TreeVersion CurrentVersion() const;

  /// Builds a snapshot of `tree` under the next version number and swaps it
  /// in. Never blocks readers; concurrent publishers serialize. Returns the
  /// published snapshot.
  std::shared_ptr<const TreeSnapshot> Publish(CategoryTree tree,
                                              std::string note = "");

  /// A retained version by number; nullptr when never published or evicted.
  std::shared_ptr<const TreeSnapshot> Version(TreeVersion version) const;

  /// Summaries of the retained versions, oldest first.
  std::vector<VersionInfo> RetainedVersions() const;

  /// TreeDiff of two retained versions (how much the tree changed from
  /// `old_version` to `new_version`). NotFound when either was evicted.
  Result<TreeDiff> Diff(TreeVersion old_version,
                        TreeVersion new_version) const;

  /// Republishes a retained version's tree as a brand-new version (history
  /// stays append-only, so the bad version remains diffable until evicted).
  /// Returns the new snapshot, or NotFound when `version` is not retained.
  Result<std::shared_ptr<const TreeSnapshot>> Rollback(TreeVersion version);

  size_t retain_limit() const { return retain_; }

  /// Installs `hook`, invoked synchronously inside every subsequent
  /// Publish() (on the publisher's thread, after the snapshot becomes
  /// current) — the durability attachment point: store::WarmStart installs
  /// a hook that commits each published tree to a store::VersionLog. Pass
  /// nullptr to detach. Publishers serialize, so the hook never runs
  /// concurrently with itself.
  void SetPublishHook(std::function<void(const TreeSnapshot&)> hook);

 private:
  std::shared_ptr<const TreeSnapshot> FindRetainedLocked(
      TreeVersion version) const;

  const size_t retain_;
  detail::SnapshotCell current_;
  mutable std::mutex mu_;  // Guards history_ and next_version_ (writers only).
  std::deque<std::shared_ptr<const TreeSnapshot>> history_;
  TreeVersion next_version_ = 1;
  std::function<void(const TreeSnapshot&)> publish_hook_;  // Guarded by mu_.
};

}  // namespace serve
}  // namespace oct

#endif  // OCT_SERVE_TREE_STORE_H_
