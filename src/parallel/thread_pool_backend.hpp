// Standard-library thread-pool backend.
//
// A dependency-free alternative to the OpenMP backend for toolchains built
// without OpenMP: persistent worker threads woken per dispatch, barrier
// semantics on return, contiguous chunk partitioning identical to the
// OpenMP backend's.
#pragma once

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "parallel/engine.hpp"

namespace qs::parallel {

class ThreadPoolBackend final : public Engine {
 public:
  /// Spawns `threads` workers (0 = hardware concurrency).
  explicit ThreadPoolBackend(unsigned threads = 0);
  ~ThreadPoolBackend() override;

  ThreadPoolBackend(const ThreadPoolBackend&) = delete;
  ThreadPoolBackend& operator=(const ThreadPoolBackend&) = delete;

  std::string_view name() const override { return "thread-pool"; }
  unsigned concurrency() const override;
  void dispatch(std::size_t n, const RangeKernel& kernel) const override;

 private:
  /// Runs `task(worker_index)` on every worker plus the calling thread and
  /// waits for completion (one generation of the barrier protocol).
  void run_on_all(const std::function<void(unsigned)>& task) const;

  void worker_loop(unsigned index);

  unsigned worker_count_;  // workers excluding the calling thread
  mutable std::mutex mutex_;
  mutable std::condition_variable wake_;
  mutable std::condition_variable done_;
  mutable const std::function<void(unsigned)>* current_task_ = nullptr;
  mutable std::uint64_t generation_ = 0;
  mutable unsigned remaining_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace qs::parallel
