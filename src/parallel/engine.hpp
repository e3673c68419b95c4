// Kernel-dispatch execution engine: the repo's stand-in for the paper's
// OpenCL/GPU runtime.
//
// The paper's GPU implementation (Section 4) launches, per butterfly level,
// a kernel over N/2 independent work items and synchronises between levels;
// the host loop owns the level iteration.  This engine reproduces exactly
// that structure on the CPU: dispatch(n, kernel) runs a 1-D index space with
// barrier semantics (all work items complete before dispatch returns).  An
// engine is a fan-out, not a summation order: it offers no reduction, and
// every parallel sum is formed on fixed row blocks combined in tree order
// (parallel/row_blocks.hpp), so every backend yields the same bits.  Backends: a
// serial one (the "single CPU core" reference of the paper's Figure 2) and a
// std::thread pool (the "parallel hardware" axis of Figure 4).  See
// DESIGN.md, "Substitutions".
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string_view>
#include <type_traits>

namespace qs::parallel {

/// Non-owning callable reference: a pointer to the callee plus a trampoline,
/// so binding a lambda never heap-allocates — unlike std::function, whose
/// small-buffer optimisation the capture lists of the banded kernels exceed,
/// which would put an allocation on every dispatch of the solver hot path
/// (see tests/alloc_guard_test.cpp).  Safe for the Engine interface because
/// dispatch has barrier semantics: the kernel is only ever
/// invoked while the caller's callable is alive; backends must not retain it
/// past the call.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like
  // std::function — call sites pass lambdas directly.
  FunctionRef(F&& f) noexcept
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              static_cast<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, static_cast<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// A chunk of a 1-D index space: the kernel body is invoked as
/// body(begin, end) and must process every index in [begin, end).
/// Passing ranges instead of single indices keeps dispatch overhead
/// negligible next to memory-bound kernel bodies.
using RangeKernel = FunctionRef<void(std::size_t begin, std::size_t end)>;

/// Abstract execution backend with kernel-launch semantics.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Human-readable backend name ("serial", "thread-pool").
  virtual std::string_view name() const = 0;

  /// Number of hardware lanes the backend will use.
  virtual unsigned concurrency() const = 0;

  /// Executes `kernel` over the index space [0, n) and returns when every
  /// index has been processed (barrier semantics, like clFinish after a
  /// kernel launch). Chunking is backend-defined; the kernel must be safe
  /// to run concurrently on disjoint ranges.
  ///
  /// Exception safety (all backends): if a kernel body throws on any lane,
  /// the first exception is captured, the barrier still completes (every
  /// other lane finishes its chunk), and the exception is rethrown on the
  /// dispatching thread.  The engine remains usable afterwards.
  virtual void dispatch(std::size_t n, const RangeKernel& kernel) const = 0;
};

/// Available backend kinds.
enum class Backend {
  serial,
  thread_pool,
};

/// Creates a fresh engine of the given kind; a thread pool gets one lane
/// per CPU in the calling thread's affinity mask.
std::unique_ptr<Engine> make_engine(Backend kind);

/// Process-lifetime serial engine (always available).
const Engine& serial_engine();

/// What a null engine option means: `engine`, or the serial engine.
inline const Engine& engine_or_serial(const Engine* engine) {
  return engine != nullptr ? *engine : serial_engine();
}

/// Process-lifetime thread pool, sized when first used.
const Engine& parallel_engine();

}  // namespace qs::parallel
