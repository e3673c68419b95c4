#include "parallel/openmp_backend.hpp"

#include <algorithm>
#include <exception>
#include <mutex>

#include "obs/trace.hpp"

#if defined(QS_HAVE_OPENMP)
#include <omp.h>
#endif

namespace qs::parallel {

#if defined(QS_HAVE_OPENMP)

namespace {

/// First-exception capture for kernel bodies running inside an OpenMP
/// region: an exception escaping a structured block is undefined behaviour
/// (in practice std::terminate), so each lane traps its own, the first one
/// wins, the region completes its barrier, and the dispatching thread
/// rethrows after the region.
class FirstException {
 public:
  void capture() noexcept {
    std::lock_guard lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
  void rethrow_if_set() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  std::exception_ptr error_;
};

}  // namespace

std::string_view OpenMPBackend::name() const { return "openmp"; }

unsigned OpenMPBackend::concurrency() const {
  return static_cast<unsigned>(omp_get_max_threads());
}

void OpenMPBackend::dispatch(std::size_t n, const RangeKernel& kernel) const {
  if (n == 0) return;
  QS_TRACE_COUNTER("engine.dispatch", 1);
  FirstException error;
  // One contiguous chunk per thread; contiguous partitions keep the
  // butterfly kernels' memory access streaming within each lane.
#pragma omp parallel
  {
    const std::size_t threads = static_cast<std::size_t>(omp_get_num_threads());
    const std::size_t tid = static_cast<std::size_t>(omp_get_thread_num());
    const std::size_t chunk = (n + threads - 1) / threads;
    const std::size_t begin = std::min(tid * chunk, n);
    const std::size_t end = std::min(begin + chunk, n);
    if (begin < end) {
      QS_TRACE_SPAN_ARG("engine.worker", engine, tid);
      try {
        kernel(begin, end);
      } catch (...) {
        error.capture();
      }
    }
  }
  error.rethrow_if_set();
}

#else  // !QS_HAVE_OPENMP — degrade gracefully to the serial implementation.

std::string_view OpenMPBackend::name() const { return "serial"; }

unsigned OpenMPBackend::concurrency() const { return 1; }

void OpenMPBackend::dispatch(std::size_t n, const RangeKernel& kernel) const {
  if (n == 0) return;
  kernel(0, n);
}

#endif

}  // namespace qs::parallel
