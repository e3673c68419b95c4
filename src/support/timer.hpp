// Wall-clock and CPU-time measurement for benches, solvers, and the
// observability layer.
//
// Two clocks, exposed both as raw nanosecond counters (the span clock of
// src/obs/) and through the Timer stopwatch:
//
//   * monotonic_ns()  — steady wall clock, never steps backwards;
//   * thread_cpu_ns() — CPU time consumed by the *calling thread*
//     (CLOCK_THREAD_CPUTIME_ID on POSIX; a coarse process-clock fallback
//     elsewhere).  wall >> cpu means the thread was waiting (barrier,
//     I/O), wall ≈ cpu means it was computing — the per-span pair is what
//     separates barrier cost from kernel cost in a trace.
//
// best_of_seconds() is the one benchmark timing idiom (best-of-N wall
// time); bench/bench_common.hpp and transforms/plan_autotune.cpp both
// delegate to it instead of rolling their own chrono loops.
// best_of_alternating_seconds() is its two-sided form for ratio checks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <utility>

#if defined(__unix__) || defined(__linux__) || defined(__APPLE__)
#include <time.h>
#define QS_HAVE_THREAD_CPUTIME 1
#else
#include <ctime>
#define QS_HAVE_THREAD_CPUTIME 0
#endif

namespace qs {

/// Steady wall clock in nanoseconds since an arbitrary epoch.
inline std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time consumed by the calling thread, in nanoseconds.  Falls back to
/// process CPU time (std::clock) on platforms without a thread CPU clock.
inline std::uint64_t thread_cpu_ns() {
#if QS_HAVE_THREAD_CPUTIME
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
#else
  return static_cast<std::uint64_t>(std::clock()) *
         (1000000000ull / CLOCKS_PER_SEC);
#endif
}

/// Monotonic wall-clock + thread-CPU stopwatch.
class Timer {
 public:
  Timer() { reset(); }

  /// Restarts the stopwatch (both clocks).
  void reset() {
    start_ns_ = monotonic_ns();
    cpu_start_ns_ = thread_cpu_ns();
  }

  /// Elapsed wall-clock seconds since construction or the last reset().
  double seconds() const {
    return static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
  }

  /// CPU seconds this thread consumed since construction or the last
  /// reset().  For a single-threaded busy loop cpu_seconds() ~ seconds();
  /// a gap means the thread was blocked or descheduled.
  double cpu_seconds() const {
    return static_cast<double>(thread_cpu_ns() - cpu_start_ns_) * 1e-9;
  }

 private:
  std::uint64_t start_ns_ = 0;
  std::uint64_t cpu_start_ns_ = 0;
};

/// Best-of-`reps` wall-clock seconds of fn() (best-of suppresses scheduler
/// noise; kernels with no warm-up effects beyond first touch absorb it in
/// the first rep).  Requires reps >= 1.
template <typename Fn>
double best_of_seconds(unsigned reps, Fn&& fn) {
  double best = 1e300;
  for (unsigned r = 0; r < reps; ++r) {
    Timer t;
    fn();
    const double s = t.seconds();
    if (s < best) best = s;
  }
  return best;
}

/// Best-of-`reps` wall-clock seconds of a() and of b(), timed alternately
/// (a, b, a, b, ...): host drift during the measurement lands on both
/// sides alike instead of in their ratio.  Requires reps >= 1.
template <typename A, typename B>
std::pair<double, double> best_of_alternating_seconds(unsigned reps, A&& a, B&& b) {
  std::pair<double, double> best{1e300, 1e300};
  for (unsigned r = 0; r < reps; ++r) {
    best.first = std::min(best.first, best_of_seconds(1, a));
    best.second = std::min(best.second, best_of_seconds(1, b));
  }
  return best;
}

}  // namespace qs
