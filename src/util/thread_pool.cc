#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/logging.h"
#include "util/timer.h"

namespace oct {

namespace {

/// Pool metrics live on the default registry: every pool in the process
/// shares them, which matches how the pool itself is usually the shared
/// DefaultThreadPool(). Cached once; the registry outlives all pools.
struct PoolMetrics {
  obs::Counter* tasks;
  obs::Gauge* queue_depth;
  obs::Histogram* task_us;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics m = {
      obs::MetricsRegistry::Default()->GetCounter("threadpool.tasks"),
      obs::MetricsRegistry::Default()->GetGauge("threadpool.queue_depth"),
      obs::MetricsRegistry::Default()->GetHistogram("threadpool.task_us"),
  };
  return m;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Propagate the submitter's trace context onto the pool thread, so
  // spans inside the task parent under the submitting request instead of
  // showing up as orphan roots of a worker thread.
  if (const obs::TraceContext ctx = obs::CurrentTraceContext(); ctx.valid()) {
    task = [ctx, inner = std::move(task)] {
      obs::TraceContextScope scope(ctx);
      inner();
    };
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    OCT_CHECK(!stop_);
    queue_.push(std::move(task));
  }
  Metrics().tasks->Increment();
  Metrics().queue_depth->Add(1);
  cv_task_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    Metrics().queue_depth->Add(-1);
    Timer task_timer;
    task();
    Metrics().task_us->Record(task_timer.ElapsedSeconds() * 1e6);
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  const size_t workers = num_threads();
  if (workers <= 1 || n < 2 * workers) {
    fn(0, n);
    return;
  }
  const size_t chunks = std::min(n, workers * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  // The count drops under done_mu, so this frame (which owns done_mu and
  // done_cv) cannot return while the last chunk still holds them.
  size_t remaining = (n + chunk_size - 1) / chunk_size;
  std::mutex done_mu;
  std::condition_variable done_cv;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    const size_t end = std::min(n, begin + chunk_size);
    Submit([&, begin, end] {
      fn(begin, end);
      std::lock_guard<std::mutex> lock(done_mu);
      if (--remaining == 0) done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
}

ThreadPool* DefaultThreadPool() {
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

}  // namespace oct
