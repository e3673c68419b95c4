// The engines the bitwise engine tests compare: the serial engine, a
// three-lane thread pool and the pool sized from the CPU affinity mask.
// Three lanes cut an index space into uneven chunks, and RowBlocks fans
// them out as bit_floor(3) = 2 blocks, a split a four-lane pool never makes.
#pragma once

#include <memory>

#include "parallel/engine.hpp"
#include "parallel/thread_pool_backend.hpp"

namespace qs::parallel {

enum class TestEngine { serial, pool3, pool };

inline constexpr TestEngine kTestEngines[] = {TestEngine::serial, TestEngine::pool3,
                                              TestEngine::pool};

inline std::unique_ptr<Engine> make_test_engine(TestEngine kind) {
  switch (kind) {
    case TestEngine::pool3:
      return std::make_unique<ThreadPoolBackend>(3);
    case TestEngine::pool:
      return make_engine(Backend::thread_pool);
    case TestEngine::serial:
      break;
  }
  return make_engine(Backend::serial);
}

/// gtest instance names: "serial", "thread_pool_3", "thread_pool".
inline const char* test_engine_name(TestEngine kind) {
  switch (kind) {
    case TestEngine::pool3:
      return "thread_pool_3";
    case TestEngine::pool:
      return "thread_pool";
    case TestEngine::serial:
      break;
  }
  return "serial";
}

}  // namespace qs::parallel
