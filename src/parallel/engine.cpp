#include "parallel/engine.hpp"

#include "parallel/serial_backend.hpp"
#include "parallel/thread_pool_backend.hpp"

namespace qs::parallel {

std::unique_ptr<Engine> make_engine(Backend kind) {
  switch (kind) {
    case Backend::thread_pool:
      return std::make_unique<ThreadPoolBackend>();
    case Backend::serial:
    default:
      return std::make_unique<SerialBackend>();
  }
}

const Engine& serial_engine() {
  static const SerialBackend instance;
  return instance;
}

const Engine& parallel_engine() {
  static const ThreadPoolBackend instance;
  return instance;
}

}  // namespace qs::parallel
