#include "parallel/thread_pool_backend.hpp"

#include <algorithm>
#include <exception>

#if defined(__linux__)
#include <sched.h>
#endif

#include "obs/trace.hpp"

namespace qs::parallel {

namespace {

/// The CPUs the calling thread may run on: a pool pinned by `taskset` or a
/// container's cpuset gets one lane per CPU it can use, not per CPU the
/// host has.
unsigned allowed_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
#endif
  return std::max(std::thread::hardware_concurrency(), 1u);
}

}  // namespace

ThreadPoolBackend::ThreadPoolBackend(unsigned threads) {
  const unsigned total = threads != 0 ? threads : allowed_cpus();
  // The calling thread participates in every dispatch, so spawn one fewer.
  worker_count_ = total - 1;
  workers_.reserve(worker_count_);
  for (unsigned i = 0; i < worker_count_; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPoolBackend::~ThreadPoolBackend() {
  {
    std::lock_guard lock(mutex_);
    shutting_down_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

unsigned ThreadPoolBackend::concurrency() const { return worker_count_ + 1; }

void ThreadPoolBackend::worker_loop(unsigned index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    const LaneTask* task = nullptr;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] {
        return shutting_down_ || generation_ != seen_generation;
      });
      if (shutting_down_) return;
      seen_generation = generation_;
      task = current_task_;
    }
    (*task)(index);
    {
      std::lock_guard lock(mutex_);
      if (--remaining_ == 0) done_.notify_one();
    }
  }
}

void ThreadPoolBackend::run_on_all(LaneTask task) const {
  // Exception safety: a kernel body that throws on any lane must not kill
  // the process (an exception escaping a worker's thread function would
  // std::terminate) and must not skip the barrier (the calling thread
  // throwing past the done_ wait would leave workers racing a dead task
  // pointer).  Each lane traps into a first-wins slot, the barrier always
  // completes, and the first exception is rethrown here, on the dispatching
  // thread.  The slot is local to this call: the barrier guarantees every
  // lane is done with it before run_on_all returns.
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto trap = [&](unsigned lane) {
    QS_TRACE_SPAN_ARG("engine.worker", engine, lane);
    try {
      task(lane);
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };
  const LaneTask guarded = trap;

  {
    std::lock_guard lock(mutex_);
    current_task_ = &guarded;
    remaining_ = worker_count_;
    ++generation_;
  }
  wake_.notify_all();
  guarded(worker_count_);  // the calling thread takes the last lane
  {
    QS_TRACE_COUNTER_SCOPE_NS("engine.barrier_wait_ns");
    std::unique_lock lock(mutex_);
    done_.wait(lock, [&] { return remaining_ == 0; });
    current_task_ = nullptr;
  }
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPoolBackend::dispatch(std::size_t n, const RangeKernel& kernel) const {
  if (n == 0) return;
  QS_TRACE_COUNTER("engine.dispatch", 1);
  if (worker_count_ == 0 || busy_.exchange(true, std::memory_order_acquire)) {
    QS_TRACE_SPAN_ARG("engine.worker", engine, 0);
    kernel(0, n);
    return;
  }
  struct Release {
    std::atomic<bool>& busy;
    ~Release() { busy.store(false, std::memory_order_release); }
  } release{busy_};
  const std::size_t lanes = concurrency();
  const std::size_t chunk = (n + lanes - 1) / lanes;
  run_on_all([&](unsigned lane) {
    const std::size_t begin = std::min<std::size_t>(lane * chunk, n);
    const std::size_t end = std::min<std::size_t>(begin + chunk, n);
    if (begin < end) kernel(begin, end);
  });
}

}  // namespace qs::parallel
