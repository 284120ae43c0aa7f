#include "router/router_stats.h"

#include <cstdio>

namespace oct {
namespace router {

std::string RouterStatsSnapshot::ToString() const {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "requests=%llu routed=%llu unrouted=%llu shed_deadline=%llu "
      "degraded=%llu errors=%llu index_version=%lld shed_rate=%.3f",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(routed),
      static_cast<unsigned long long>(unrouted),
      static_cast<unsigned long long>(shed_deadline),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(errors),
      static_cast<long long>(index_version), ShedRate());
  return buf;
}

RouterStats::RouterStats()
    : requests_(registry_.GetCounter(
          "router.requests", "Requests admitted by a running router")),
      routed_(registry_.GetCounter(
          "router.routed", "Requests answered with a non-empty ranking")),
      unrouted_(registry_.GetCounter(
          "router.unrouted",
          "Requests answered OK with no category above the Jaccard floor")),
      shed_deadline_(registry_.GetCounter(
          "router.shed_deadline",
          "Requests dropped: deadline expired before scoring began")),
      degraded_(registry_.GetCounter(
          "router.degraded",
          "Requests cut short mid-descent, answered best-so-far")),
      errors_(registry_.GetCounter(
          "router.errors", "Requests failed by resolve/score errors")),
      index_version_(registry_.GetGauge(
          "router.index_version",
          "TreeSnapshot version of the most recently pinned RouteIndex")),
      route_us_(registry_.GetHistogram(
          "router.route_us", "End-to-end route latency (arrival to answer)",
          "us")),
      resolve_us_(registry_.GetHistogram(
          "router.resolve_us", "Result-set resolution per answer", "us")),
      score_us_(registry_.GetHistogram(
          "router.score_us", "Descent and ranking per answer", "us")) {}

RouterStatsSnapshot RouterStats::Snapshot() const {
  RouterStatsSnapshot s;
  s.requests = requests_->Value();
  s.routed = routed_->Value();
  s.unrouted = unrouted_->Value();
  s.shed_deadline = shed_deadline_->Value();
  s.degraded = degraded_->Value();
  s.errors = errors_->Value();
  s.index_version = index_version_->Value();
  return s;
}

}  // namespace router
}  // namespace oct
