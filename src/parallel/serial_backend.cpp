#include "parallel/serial_backend.hpp"

#include "obs/trace.hpp"

namespace qs::parallel {

void SerialBackend::dispatch(std::size_t n, const RangeKernel& kernel) const {
  if (n == 0) return;
  QS_TRACE_COUNTER("engine.dispatch", 1);
  QS_TRACE_SPAN_ARG("engine.worker", engine, 0);
  // Single inline chunk: a throwing kernel body propagates directly to the
  // caller, which is exactly the Engine exception-safety contract.
  kernel(0, n);
}

}  // namespace qs::parallel
