// Unit tests for the kernel-dispatch execution engine (GPU substitute).
#include "parallel/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/fmmp.hpp"
#include "core/mutation_model.hpp"
#include "core/spectral.hpp"
#include "linalg/tree_reduce.hpp"
#include "parallel/row_blocks.hpp"
#include "parallel/thread_pool_backend.hpp"
#include "reference/butterfly.hpp"
#include "solvers/power_iteration.hpp"
#include "support/rng.hpp"
#include "test_engines.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace qs::parallel {
namespace {

class EngineTest : public ::testing::TestWithParam<TestEngine> {
 protected:
  std::unique_ptr<Engine> engine_ = make_test_engine(GetParam());
};

TEST_P(EngineTest, DispatchCoversEveryIndexExactlyOnce) {
  const std::size_t n = 100001;
  std::vector<std::atomic<int>> hits(n);
  engine_->dispatch(n, [&hits](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(EngineTest, DispatchOfZeroIsNoOp) {
  bool called = false;
  engine_->dispatch(0, [&called](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_P(EngineTest, DispatchHasBarrierSemantics) {
  // All writes from the kernel must be visible after dispatch returns.
  const std::size_t n = 4096;
  std::vector<double> out(n, 0.0);
  engine_->dispatch(n, [&out](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = static_cast<double>(i);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], static_cast<double>(i));
}

TEST_P(EngineTest, RowBlockSumsAreTheOneBlockTreeSums) {
  // Every parallel sum is formed on RowBlocks: fixed power-of-two blocks
  // whose tree-ordered partials combine in tree order.  Whatever the
  // backend and its lane count, the sums are the whole-range tree_reduce
  // bit for bit — fanned out (2^16 rows) and inline (a length that is not a
  // power of two).
  for (std::size_t n : {std::size_t{1} << 16, std::size_t{12345}}) {
    std::vector<double> a(n), b(n);
    Xoshiro256 rng(42 + n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(-1.0, 1.0);
      b[i] = rng.uniform(-1.0, 1.0);
    }
    const auto dot = [&a, &b](std::size_t i) { return a[i] * b[i]; };
    const auto abs = [&a](std::size_t i) { return std::abs(a[i]); };
    RowBlocks blocks(*engine_, n, 1, 2);
    if (n == (std::size_t{1} << 16) && engine_->concurrency() > 1) {
      EXPECT_GT(blocks.blocks(), 1u);
    }
    double out[2] = {};
    blocks.sums(2, [&](std::size_t begin, std::size_t end, double* partial) {
      partial[0] = linalg::tree_reduce(begin, end, dot);
      partial[1] = linalg::tree_reduce(begin, end, abs);
    }, out);
    EXPECT_EQ(out[0], linalg::tree_reduce(std::size_t{0}, n, dot)) << "n=" << n;
    EXPECT_EQ(out[1], linalg::tree_reduce(std::size_t{0}, n, abs)) << "n=" << n;
  }
}

TEST_P(EngineTest, DispatchPropagatesKernelExceptions) {
  // An exception thrown inside a kernel lane must surface on the dispatching
  // thread (not terminate the process), and every lane must still pass the
  // barrier — verified by the engine staying usable afterwards.
  const std::size_t n = 100000;
  EXPECT_THROW(engine_->dispatch(n,
                                 [](std::size_t begin, std::size_t) {
                                   if (begin == 0) {
                                     throw std::runtime_error("kernel fault");
                                   }
                                 }),
               std::runtime_error);
  // The engine survives and the next dispatch is complete and correct.
  std::vector<double> out(n, 0.0);
  engine_->dispatch(n, [&out](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] = 1.0;
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], 1.0);
}

TEST_P(EngineTest, DispatchPropagatesWhenEveryLaneThrows) {
  // First-wins capture: with all lanes throwing, exactly one exception
  // reaches the caller and the rest are swallowed, not std::terminate'd.
  EXPECT_THROW(engine_->dispatch(10000,
                                 [](std::size_t, std::size_t) {
                                   throw std::invalid_argument("all lanes");
                                 }),
               std::invalid_argument);
  std::atomic<std::size_t> covered{0};
  engine_->dispatch(2, [&covered](std::size_t begin, std::size_t end) {
    covered += end - begin;
  });
  EXPECT_EQ(covered.load(), 2u);
}

TEST_P(EngineTest, RowBlockSumsPropagateKernelExceptions) {
  // A block body that throws reaches the caller of sums(), through the
  // engine's capture-and-rethrow when the rows fan out and directly when
  // they run inline, and the same RowBlocks sums correctly afterwards.
  const std::size_t n = std::size_t{1} << 16;
  RowBlocks blocks(*engine_, n, 1, 1);
  double out = 0.0;
  EXPECT_THROW(blocks.sums(1,
                           [](std::size_t begin, std::size_t, double*) {
                             if (begin == 0) throw std::runtime_error("sum fault");
                           },
                           &out),
               std::runtime_error);
  blocks.sums(1, [](std::size_t begin, std::size_t end, double* partial) {
    partial[0] = static_cast<double>(end - begin);
  }, &out);
  EXPECT_EQ(out, static_cast<double>(n));
}

TEST_P(EngineTest, ExceptionTypeAndMessageSurviveThePropagation) {
  try {
    engine_->dispatch(1000, [](std::size_t, std::size_t) {
      throw std::out_of_range("specific message");
    });
    FAIL() << "dispatch must rethrow";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "specific message");
  }
}

TEST_P(EngineTest, ConcurrencyIsAtLeastOne) {
  EXPECT_GE(engine_->concurrency(), 1u);
}

TEST_P(EngineTest, HasNonEmptyName) {
  EXPECT_FALSE(engine_->name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, EngineTest, ::testing::ValuesIn(kTestEngines),
                         [](const auto& info) { return test_engine_name(info.param); });

TEST(ThreadPool, ExplicitThreadCountAndFmmpAgreement) {
  // A pool with several genuine std::threads must reproduce the serial
  // butterfly bit for bit (the kernel bodies are identical arithmetic).
  const auto pool = make_engine(Backend::thread_pool);
  EXPECT_GE(pool->concurrency(), 1u);
  EXPECT_EQ(pool->name(), "thread-pool");

  const auto model = qs::core::MutationModel::uniform(10, 0.03);
  std::vector<double> serial(1024), pooled(1024);
  qs::Xoshiro256 rng(5);
  for (std::size_t i = 0; i < 1024; ++i) serial[i] = pooled[i] = rng.uniform();
  qs::transforms::apply_butterfly(serial, model.site_factors());
  model.apply(pooled, *pool);
  for (std::size_t i = 0; i < 1024; ++i) ASSERT_DOUBLE_EQ(serial[i], pooled[i]);

  // The power loop too: four lanes split each of its passes into four 2^12
  // blocks written concurrently (the partial slots, the shifted product,
  // the rescaled iterate), and the solve must still be the serial one, bit
  // for bit.  Also the ThreadSanitizer case for those concurrent writes.
  ThreadPoolBackend four_lanes(4);
  const unsigned nu = 14;
  const auto w_model = qs::core::MutationModel::uniform(nu, 0.02);
  const auto landscape = qs::core::Landscape::random(nu, 5.0, 1.0, 21);
  const qs::core::FmmpOperator op(w_model, landscape);
  auto run = [&](const Engine* engine, std::vector<std::pair<unsigned, double>>& stream) {
    qs::solvers::PowerOptions opts;
    opts.shift = qs::core::conservative_shift(w_model, landscape);
    opts.engine = engine;
    opts.on_residual = [&stream](unsigned it, double r) { stream.emplace_back(it, r); };
    return qs::solvers::power_iteration(op, qs::solvers::landscape_start(landscape),
                                        opts);
  };
  std::vector<std::pair<unsigned, double>> serial_stream, pooled_stream;
  const auto serial_solve = run(nullptr, serial_stream);
  const auto pooled_solve = run(&four_lanes, pooled_stream);
  ASSERT_TRUE(serial_solve.converged);
  EXPECT_EQ(pooled_solve.eigenvalue, serial_solve.eigenvalue);
  EXPECT_EQ(pooled_solve.iterations, serial_solve.iterations);
  EXPECT_EQ(pooled_stream, serial_stream);
  ASSERT_EQ(pooled_solve.eigenvector.size(), serial_solve.eigenvector.size());
  for (std::size_t i = 0; i < serial_solve.eigenvector.size(); ++i) {
    ASSERT_EQ(pooled_solve.eigenvector[i], serial_solve.eigenvector[i]) << "entry " << i;
  }
}

TEST(ThreadPool, ManyThreadsOnFewItems) {
  // More lanes than work: chunking must stay correct.
  qs::parallel::ThreadPoolBackend pool(8);
  EXPECT_EQ(pool.concurrency(), 8u);
  std::vector<double> out(3, 0.0);
  pool.dispatch(3, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) out[i] += 1.0;
  });
  for (double v : out) EXPECT_EQ(v, 1.0);
  // Repeated dispatches reuse the same workers (barrier generations).
  for (int round = 0; round < 50; ++round) {
    pool.dispatch(3, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) out[i] += 1.0;
    });
  }
  for (double v : out) EXPECT_EQ(v, 51.0);
}

TEST(ThreadPool, DefaultSizeFollowsTheAffinityMask) {
#if defined(__linux__)
  // A pool sized on a thread pinned to one CPU gets one lane, however many
  // CPUs the host has.  Only the test's own thread is narrowed.
  unsigned lanes = 0;
  unsigned made_lanes = 0;
  bool pinned = false;
  std::thread probe([&] {
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask) != 0) return;
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &mask)) ++cpu;
    if (cpu == CPU_SETSIZE) return;
    CPU_ZERO(&mask);
    CPU_SET(cpu, &mask);
    if (pthread_setaffinity_np(pthread_self(), sizeof(mask), &mask) != 0) return;
    pinned = true;
    lanes = ThreadPoolBackend().concurrency();
    made_lanes = make_engine(Backend::thread_pool)->concurrency();
  });
  probe.join();
  if (!pinned) GTEST_SKIP() << "cannot narrow this thread's CPU affinity";
  EXPECT_EQ(lanes, 1u);
  EXPECT_EQ(made_lanes, 1u);
#else
  GTEST_SKIP() << "no CPU affinity mask on this platform";
#endif
}

TEST(ThreadPool, ConcurrentAndNestedDispatchesComplete) {
  // Two threads dispatching on one pool, and a dispatch nested inside a
  // kernel: whichever finds the workers busy runs inline, and every index
  // is still covered exactly once.
  const ThreadPoolBackend pool(4);
  const std::size_t n = 1 << 14;
  auto cover = [&pool, n](std::vector<int>& hits) {
    for (int round = 0; round < 100; ++round) {
      pool.dispatch(n, [&hits](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      });
    }
  };
  std::vector<int> first(n, 0), second(n, 0);
  std::thread other([&] { cover(second); });
  cover(first);
  other.join();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(first[i], 100) << "index " << i;
    ASSERT_EQ(second[i], 100) << "index " << i;
  }

  std::vector<std::atomic<int>> nested(n);
  pool.dispatch(4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t part = begin; part < end; ++part) {
      const std::size_t offset = part * (n / 4);
      pool.dispatch(n / 4, [&nested, offset](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) nested[offset + i].fetch_add(1);
      });
    }
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(nested[i].load(), 1) << "index " << i;
}

TEST(EngineSingletons, Available) {
  EXPECT_EQ(serial_engine().name(), "serial");
  EXPECT_EQ(parallel_engine().name(), "thread-pool");
  EXPECT_GE(parallel_engine().concurrency(), 1u);
}

TEST(EngineSingletons, SerialDispatchRunsOneChunk) {
  int chunks = 0;
  serial_engine().dispatch(1000, [&chunks](std::size_t begin, std::size_t end) {
    ++chunks;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 1000u);
  });
  EXPECT_EQ(chunks, 1);
}

}  // namespace
}  // namespace qs::parallel
