#include "fault/failpoint.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace oct {
namespace fault {

namespace {

/// SplitMix64 step: the registry's probability stream. Not Rng to keep the
/// registry header free of util/rng.h (failpoint.h is included from hot
/// paths).
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Result<double> ParseProbability(const std::string& s) {
  char* end = nullptr;
  const double p = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || p < 0.0 || p > 1.0) {
    return Status::InvalidArgument("bad probability: " + s);
  }
  return p;
}

Result<double> ParseMillis(const std::string& s) {
  std::string digits = s;
  if (digits.size() > 2 && digits.substr(digits.size() - 2) == "ms") {
    digits = digits.substr(0, digits.size() - 2);
  }
  char* end = nullptr;
  const double ms = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0' || ms < 0.0) {
    return Status::InvalidArgument("bad delay: " + s);
  }
  return ms;
}

/// Parses a trailing "xN" trigger cap; returns -1 when `s` is not one.
int64_t ParseTriggerCap(const std::string& s) {
  if (s.size() < 2 || s[0] != 'x') return -1;
  char* end = nullptr;
  const long long n = std::strtoll(s.c_str() + 1, &end, 10);
  if (end == s.c_str() + 1 || *end != '\0' || n <= 0) return -1;
  return n;
}

}  // namespace

const char* FailActionName(FailAction action) {
  switch (action) {
    case FailAction::kOff:
      return "off";
    case FailAction::kError:
      return "error";
    case FailAction::kDelay:
      return "delay";
    case FailAction::kCrash:
      return "crash";
  }
  return "?";
}

void FailPoint::Arm(FailSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  spec_ = spec;
  armed_.store(spec.action != FailAction::kOff, std::memory_order_release);
}

void FailPoint::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  spec_ = FailSpec{};
  armed_.store(false, std::memory_order_release);
}

Status FailPoint::EvaluateArmed() {
  // The probability draw happens outside mu_ (NextUnit locks the registry;
  // DisarmAll locks the registry and then this point — drawing under mu_
  // would invert that order). A racing Disarm between the draw and the
  // locked section below is resolved by re-checking the armed spec.
  const double draw = FailPointRegistry::Default()->NextUnit();
  FailSpec spec;
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spec_.action == FailAction::kOff) return Status::OK();
    if (hits_counter_ == nullptr) {
      obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
      hits_counter_ = reg->GetCounter("fault." + name_ + ".hits");
      triggered_counter_ = reg->GetCounter("fault." + name_ + ".triggered");
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    hits_counter_->Increment();
    spec = spec_;  // Capture the action before any cap-triggered disarm.
    fire = spec_.probability >= 1.0 || draw < spec_.probability;
    if (fire) {
      triggered_.fetch_add(1, std::memory_order_relaxed);
      triggered_counter_->Increment();
      if (spec_.max_triggers > 0 && --spec_.max_triggers == 0) {
        spec_.action = FailAction::kOff;
        armed_.store(false, std::memory_order_release);
      }
    }
  }
  if (!fire) return Status::OK();
  switch (spec.action) {
    case FailAction::kOff:
      return Status::OK();  // Unreachable: captured while armed.
    case FailAction::kError:
      return Status(
          spec.error_code,
          "failpoint " + name_ + " injected " + StatusCodeName(spec.error_code));
    case FailAction::kDelay:
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(spec.delay_ms));
      return Status::OK();
    case FailAction::kCrash:
      OCT_LOG_ERROR << "failpoint " << name_ << " crashing process";
      // Output printed before the crash survives a redirect. Nothing else
      // is flushed: file data a real crash would lose is lost here too.
      std::fflush(stdout);
      std::fflush(stderr);
      std::abort();
  }
  return Status::OK();
}

FailPoint* FailPointRegistry::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    it = points_.emplace(name, std::unique_ptr<FailPoint>(new FailPoint(name)))
             .first;
  }
  return it->second.get();
}

Status FailPointRegistry::Arm(const std::string& name,
                              const std::string& action) {
  auto spec = ParseAction(action);
  if (!spec.ok()) return spec.status();
  Get(name)->Arm(*spec);
  return Status::OK();
}

Status FailPointRegistry::ArmFromSpec(const std::string& spec) {
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("bad failpoint entry: " + entry);
    }
    OCT_RETURN_NOT_OK(Arm(entry.substr(0, eq), entry.substr(eq + 1)));
  }
  return Status::OK();
}

void FailPointRegistry::DisarmAll() {
  // Collect under the registry lock, disarm outside it: Disarm takes the
  // point's own mutex, and EvaluateArmed acquires registry-then-point in
  // the opposite order via NextUnit.
  std::vector<FailPoint*> points;
  {
    std::lock_guard<std::mutex> lock(mu_);
    points.reserve(points_.size());
    for (auto& [name, fp] : points_) points.push_back(fp.get());
  }
  for (FailPoint* fp : points) fp->Disarm();
}

void FailPointRegistry::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_state_ = seed ^ 0x6f63745f666c74ULL;
}

std::vector<std::string> FailPointRegistry::ArmedNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, fp] : points_) {
    if (fp->armed()) out.push_back(name);
  }
  return out;
}

double FailPointRegistry::NextUnit() {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(SplitMix64(&rng_state_) >> 11) * 0x1.0p-53;
}

FailPointRegistry* FailPointRegistry::Default() {
  static FailPointRegistry* instance = [] {
    auto* reg = new FailPointRegistry();  // Leaked: exit-handler safe.
    if (const char* seed = std::getenv("OCT_FAILPOINT_SEED")) {
      reg->Seed(std::strtoull(seed, nullptr, 10));
    }
    if (const char* spec = std::getenv("OCT_FAILPOINTS")) {
      const Status st = reg->ArmFromSpec(spec);
      if (!st.ok()) {
        OCT_LOG_WARNING << "ignoring bad OCT_FAILPOINTS: " << st.ToString();
      }
    }
    return reg;
  }();
  return instance;
}

Result<FailSpec> FailPointRegistry::ParseAction(const std::string& action) {
  const std::vector<std::string> parts = Split(action, ':');
  if (parts.empty() || parts[0].empty()) {
    return Status::InvalidArgument("empty failpoint action");
  }
  FailSpec spec;
  size_t next = 1;
  if (parts[0] == "off") {
    spec.action = FailAction::kOff;
  } else if (parts[0] == "error") {
    spec.action = FailAction::kError;
  } else if (parts[0] == "delay") {
    spec.action = FailAction::kDelay;
    if (parts.size() < 2) {
      return Status::InvalidArgument("delay needs a duration: " + action);
    }
    auto ms = ParseMillis(parts[1]);
    if (!ms.ok()) return ms.status();
    spec.delay_ms = *ms;
    next = 2;
  } else if (parts[0] == "crash") {
    spec.action = FailAction::kCrash;
    spec.max_triggers = 1;  // One-shot unless an explicit xN follows.
  } else {
    return Status::InvalidArgument("unknown failpoint action: " + parts[0]);
  }
  // Optional probability, then optional trailing xN trigger cap.
  if (next < parts.size()) {
    const int64_t cap = ParseTriggerCap(parts[next]);
    if (cap > 0) {
      spec.max_triggers = cap;
      ++next;
    } else {
      auto p = ParseProbability(parts[next]);
      if (!p.ok()) return p.status();
      spec.probability = *p;
      ++next;
    }
  }
  if (next < parts.size()) {
    const int64_t cap = ParseTriggerCap(parts[next]);
    if (cap <= 0) {
      return Status::InvalidArgument("bad failpoint suffix: " + parts[next]);
    }
    spec.max_triggers = cap;
    ++next;
  }
  if (next != parts.size()) {
    return Status::InvalidArgument("trailing failpoint segments: " + action);
  }
  return spec;
}

}  // namespace fault
}  // namespace oct
