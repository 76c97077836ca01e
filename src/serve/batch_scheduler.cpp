#include "serve/batch_scheduler.h"

#include <utility>
#include <vector>

#include "common/error.h"
#include "exec/parallel_for.h"

namespace dwi::serve {

namespace {

/// Checked before the FIFO is sized, so a zero bound is reported as
/// the serving bound it is.
SchedulerConfig validated(SchedulerConfig cfg) {
  DWI_REQUIRE(cfg.queue_capacity > 0, "serve: queue capacity must be > 0");
  DWI_REQUIRE(cfg.max_batch > 0, "serve: max_batch must be > 0");
  return cfg;
}

}  // namespace

BatchScheduler::BatchScheduler(SchedulerConfig cfg, ServerMetrics* metrics)
    : cfg_(validated(cfg)), metrics_(metrics), queue_(cfg_.queue_capacity) {
  DWI_ASSERT(metrics_ != nullptr);
  thread_ = std::thread([this] { loop(); });
}

BatchScheduler::~BatchScheduler() { shutdown(); }

ServeStatus BatchScheduler::try_enqueue(Job job) {
  DWI_ASSERT(job.run != nullptr);
  std::size_t depth = 0;
  {
    std::lock_guard lock(mutex_);
    if (!accepting_) return ServeStatus::kShuttingDown;
    if (queue_.full()) return ServeStatus::kQueueFull;
    queue_.push(std::move(job));
    depth = queue_.size();
  }
  metrics_->record_admitted(depth);
  cv_.notify_one();
  return ServeStatus::kAdmitted;
}

void BatchScheduler::shutdown() {
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

std::size_t BatchScheduler::queue_depth() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

void BatchScheduler::loop() {
  std::vector<Job> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ with a drained queue
      const RequestKind kind = queue_.front().kind;
      const std::size_t limit = cfg_.batching ? cfg_.max_batch : 1;
      while (!queue_.empty() && batch.size() < limit &&
             queue_.front().kind == kind) {
        batch.push_back(queue_.pop());
      }
    }
    metrics_->record_batch(batch.size());
    // Jobs are independent (each computes from its own substream), so
    // the batch fans out over the pool; the scheduler thread
    // participates via parallel_for's caller-claims protocol. run()
    // never throws by contract, so no exception can reach here.
    exec::parallel_for(batch.size(),
                       [&](std::size_t i) { batch[i].run(); });
  }
}

}  // namespace dwi::serve
