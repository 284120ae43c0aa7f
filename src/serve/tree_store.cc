#include "serve/tree_store.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace oct {
namespace serve {

TreeStore::TreeStore(size_t retain) : retain_(std::max<size_t>(1, retain)) {}

TreeVersion TreeStore::CurrentVersion() const {
  const auto snap = Current();
  return snap ? snap->version() : 0;
}

std::shared_ptr<const TreeSnapshot> TreeStore::Publish(CategoryTree tree,
                                                       std::string note) {
  OCT_SPAN("serve/publish");
  std::lock_guard<std::mutex> lock(mu_);
  // Index building happens here, on the publisher's thread; readers keep
  // serving the previous snapshot until the single atomic store below.
  auto snap = std::make_shared<const TreeSnapshot>(
      std::move(tree), next_version_++, std::move(note));
  history_.push_back(snap);
  while (history_.size() > retain_) history_.pop_front();
  current_.Store(snap);
  // Durability ride-along: the hook (e.g. a store::VersionLog commit) runs
  // on the publisher's thread so the log order matches the publish order.
  if (publish_hook_) publish_hook_(*snap);
  return snap;
}

void TreeStore::SetPublishHook(
    std::function<void(const TreeSnapshot&)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  publish_hook_ = std::move(hook);
}

std::shared_ptr<const TreeSnapshot> TreeStore::FindRetainedLocked(
    TreeVersion version) const {
  for (const auto& snap : history_) {
    if (snap->version() == version) return snap;
  }
  return nullptr;
}

std::shared_ptr<const TreeSnapshot> TreeStore::Version(
    TreeVersion version) const {
  std::lock_guard<std::mutex> lock(mu_);
  return FindRetainedLocked(version);
}

std::vector<VersionInfo> TreeStore::RetainedVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<VersionInfo> out;
  out.reserve(history_.size());
  for (const auto& snap : history_) {
    VersionInfo info;
    info.version = snap->version();
    info.num_categories = snap->num_categories();
    info.num_items = snap->num_items_indexed();
    info.build_seconds = snap->build_seconds();
    info.note = snap->note();
    out.push_back(std::move(info));
  }
  return out;
}

Result<TreeDiff> TreeStore::Diff(TreeVersion old_version,
                                 TreeVersion new_version) const {
  std::shared_ptr<const TreeSnapshot> old_snap, new_snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    old_snap = FindRetainedLocked(old_version);
    new_snap = FindRetainedLocked(new_version);
  }
  if (old_snap == nullptr) {
    return Status::NotFound("version " + std::to_string(old_version) +
                            " not retained");
  }
  if (new_snap == nullptr) {
    return Status::NotFound("version " + std::to_string(new_version) +
                            " not retained");
  }
  // CompareTrees runs outside the lock: diffs are operator queries and must
  // not stall publishes.
  return CompareTrees(old_snap->tree(), new_snap->tree());
}

Result<std::shared_ptr<const TreeSnapshot>> TreeStore::Rollback(
    TreeVersion version) {
  CategoryTree tree;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto snap = FindRetainedLocked(version);
    if (snap == nullptr) {
      return Status::NotFound("version " + std::to_string(version) +
                              " not retained");
    }
    tree = snap->tree();
  }
  return Publish(std::move(tree),
                 "rollback to v" + std::to_string(version));
}

}  // namespace serve
}  // namespace oct
