// Standard-library thread-pool backend: the repo's stand-in for the paper's
// GPU (see DESIGN.md, "Substitutions").
//
// Persistent worker threads are woken per dispatch, and dispatch returns
// only when every lane is done (the barrier between butterfly levels).  The
// index space is cut into one contiguous chunk per lane, as an OpenCL
// runtime cuts a 1-D NDRange into work groups; contiguous chunks keep each
// lane's memory access streaming.  A dispatch allocates nothing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/engine.hpp"

namespace qs::parallel {

class ThreadPoolBackend final : public Engine {
 public:
  /// Runs `threads` lanes: the calling thread plus `threads - 1` workers.
  /// 0 = one lane per CPU the calling thread may run on (its affinity mask;
  /// hardware concurrency where the mask cannot be read).
  explicit ThreadPoolBackend(unsigned threads = 0);
  ~ThreadPoolBackend() override;

  ThreadPoolBackend(const ThreadPoolBackend&) = delete;
  ThreadPoolBackend& operator=(const ThreadPoolBackend&) = delete;

  std::string_view name() const override { return "thread-pool"; }
  unsigned concurrency() const override;

  /// One dispatch owns the workers at a time.  A dispatch that finds them
  /// busy (another thread's, or one nested inside a kernel) runs as one
  /// chunk on its own thread; every sum is formed on fixed row blocks, so
  /// the bits are the same.
  void dispatch(std::size_t n, const RangeKernel& kernel) const override;

 private:
  using LaneTask = FunctionRef<void(unsigned)>;

  /// Runs `task(lane)` on every worker plus the calling thread and waits
  /// for completion (one generation of the barrier protocol).
  void run_on_all(LaneTask task) const;

  void worker_loop(unsigned index);

  unsigned worker_count_;  // workers excluding the calling thread
  mutable std::atomic<bool> busy_{false};
  mutable std::mutex mutex_;
  mutable std::condition_variable wake_;
  mutable std::condition_variable done_;
  mutable const LaneTask* current_task_ = nullptr;
  mutable std::uint64_t generation_ = 0;
  mutable unsigned remaining_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qs::parallel
