// SolverService + SocketServer: correct answers, cache round trips
// bit-identical to fresh solves, admission control under load, deadlines,
// cancellation, worker faults — and in every failure case, a structured
// reply with the daemon still serving afterwards.
#include "service/server.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>

#include "analysis/error_classes.hpp"
#include "analysis/sweep.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "reference/fault_injection.hpp"
#include "service/client.hpp"
#include "solvers/quasispecies_solver.hpp"
#include "stochastic/ensemble.hpp"

namespace qs::service {
namespace {

namespace fs = std::filesystem;

SolveRequest quick_request(double peak = 8.0) {
  SolveRequest request;
  request.nu = 6;
  request.landscape = LandscapeKind::single_peak;
  request.param0 = peak;
  request.param1 = 1.0;
  request.p = 0.02;
  request.tolerance = 1e-10;
  request.max_iterations = 100000;
  return request;
}

/// Blocks every worker until release() — makes queue states deterministic.
class WorkerGate {
 public:
  std::function<void()> hook() {
    return [this] {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return open_; });
    };
  }
  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(SolverService, AnswersMatchTheDirectFacadeSolve) {
  SolverService service;
  const SolveReply reply = service.solve(quick_request());
  ASSERT_EQ(reply.status, StatusCode::ok) << reply.message;
  EXPECT_FALSE(reply.cache_hit);
  EXPECT_LE(reply.residual, 1e-10);
  ASSERT_EQ(reply.class_concentrations.size(), 7u);

  // Cross-check against the facade: same model, same landscape, same
  // formulation — eigenvalue and class concentrations must agree to
  // solver tolerance.
  const auto direct = solvers::solve(core::MutationModel::uniform(6, 0.02),
                                     core::Landscape::single_peak(6, 8.0, 1.0));
  ASSERT_TRUE(direct.converged);
  EXPECT_NEAR(reply.eigenvalue, direct.eigenvalue, 1e-8);
  for (std::size_t k = 0; k < reply.class_concentrations.size(); ++k) {
    EXPECT_NEAR(reply.class_concentrations[k], direct.class_concentrations[k], 1e-7);
  }
}

TEST(SolverService, OneColumnMissIsTheFacadeBitForBit) {
  // A lone miss is a one-column family solve: the daemon stops by the
  // facade's rule, so its answer is the unshifted facade solve with the
  // family's check cadence, bit for bit.
  SolverService service;
  const SolveRequest request = quick_request();
  const SolveReply reply = service.solve(request);
  ASSERT_EQ(reply.status, StatusCode::ok) << reply.message;

  solvers::SolveOptions opts;
  opts.use_shift = false;
  opts.residual_check_every = 8;
  opts.tolerance = request.tolerance;
  opts.max_iterations = static_cast<unsigned>(request.max_iterations);
  const auto direct = solvers::solve(
      core::MutationModel::uniform(request.nu, request.p),
      core::Landscape::single_peak(request.nu, request.param0, request.param1), opts);
  ASSERT_TRUE(direct.converged);
  EXPECT_EQ(reply.eigenvalue, direct.eigenvalue);
  EXPECT_EQ(reply.residual, direct.residual);
  EXPECT_EQ(reply.iterations, direct.iterations);
  EXPECT_EQ(reply.class_concentrations, direct.class_concentrations);
}

TEST(SolverService, CachedReplyIsBitIdenticalToTheFreshSolve) {
  SolverService service;
  const SolveRequest request = quick_request();
  const SolveReply fresh = service.solve(request);
  ASSERT_EQ(fresh.status, StatusCode::ok);
  ASSERT_FALSE(fresh.cache_hit);

  const SolveReply cached = service.solve(request);
  ASSERT_EQ(cached.status, StatusCode::ok);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(std::memcmp(&cached.eigenvalue, &fresh.eigenvalue, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&cached.residual, &fresh.residual, sizeof(double)), 0);
  EXPECT_EQ(cached.iterations, fresh.iterations);
  ASSERT_EQ(cached.class_concentrations.size(), fresh.class_concentrations.size());
  EXPECT_EQ(std::memcmp(cached.class_concentrations.data(),
                        fresh.class_concentrations.data(),
                        fresh.class_concentrations.size() * sizeof(double)),
            0);
  EXPECT_EQ(service.cache_stats().hits, 1u);
}

TEST(SolverService, DiskCacheSurvivesServiceRestartBitIdentically) {
  const fs::path dir = fs::temp_directory_path() /
                       ("qs_service_cache_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  const SolveRequest request = quick_request();
  SolveReply fresh;
  {
    ServiceConfig config;
    config.cache_dir = dir;
    SolverService service(config);
    fresh = service.solve(request);
    ASSERT_EQ(fresh.status, StatusCode::ok);
  }
  {
    ServiceConfig config;
    config.cache_dir = dir;
    SolverService service(config);
    const SolveReply cached = service.solve(request);
    ASSERT_EQ(cached.status, StatusCode::ok);
    EXPECT_TRUE(cached.cache_hit);
    EXPECT_EQ(std::memcmp(&cached.eigenvalue, &fresh.eigenvalue, sizeof(double)), 0);
    ASSERT_EQ(cached.class_concentrations.size(), fresh.class_concentrations.size());
    EXPECT_EQ(std::memcmp(cached.class_concentrations.data(),
                          fresh.class_concentrations.data(),
                          fresh.class_concentrations.size() * sizeof(double)),
              0);
  }
  fs::remove_all(dir);
}

TEST(SolverService, CoalescesCompatibleRequestsIntoOnePanelBatch) {
  WorkerGate gate;
  ServiceConfig config;
  config.before_batch_hook = gate.hook();
  config.max_batch = 8;
  SolverService service(config);

  // Occupy the single worker with a request from a DIFFERENT (nu, p)
  // batch: it blocks at the gate holding its own batch, so the four
  // compatible requests below are all queued before the worker can pop
  // again — without this the worker could grab the first one as a
  // width-1 batch before the rest arrive.
  SolveRequest blocker = quick_request(3.0);
  blocker.nu = 5;
  auto occupied = service.submit(blocker);
  while (service.queue_stats().popped < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Four scenarios sharing (nu, p) but with distinct landscapes: queued
  // behind the gate, they coalesce into one panel batch of width 4.
  std::vector<std::future<SolveReply>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(service.submit(quick_request(6.0 + i)));
  }
  gate.release();
  EXPECT_EQ(occupied.get().status, StatusCode::ok);
  for (auto& future : futures) {
    const SolveReply reply = future.get();
    ASSERT_EQ(reply.status, StatusCode::ok) << reply.message;
    EXPECT_EQ(reply.batch_width, 4u);
    EXPECT_FALSE(reply.cache_hit);
  }
  EXPECT_EQ(service.queue_stats().batches, 2u);  // blocker + the coalesced 4
}

TEST(SolverService, BatchRepliesCarryTheFamilySolvesClassConcentrations) {
  // The service reads each reply's [Gamma_k] off the family's iterate
  // panel; at every batch width it must be class_concentrations of
  // sweep_landscape_family's eigenvector of the same landscapes, bit for
  // bit, with the same eigenvalue, residual and product count.
  for (std::size_t m : {1ul, 3ul, 8ul}) {
    SCOPED_TRACE(::testing::Message() << "m " << m);
    WorkerGate gate;
    ServiceConfig config;
    config.before_batch_hook = gate.hook();
    config.max_batch = 8;
    SolverService service(config);
    // Hold the worker on another (nu, p) batch so the m requests coalesce.
    SolveRequest blocker = quick_request(3.0);
    blocker.nu = 5;
    auto occupied = service.submit(blocker);
    while (service.queue_stats().popped < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<SolveRequest> requests;
    std::vector<std::future<SolveReply>> futures;
    std::vector<core::Landscape> family;
    for (std::size_t j = 0; j < m; ++j) {
      SolveRequest r = quick_request();
      r.nu = 8;
      r.landscape = LandscapeKind::random;
      r.param0 = 5.0;
      r.param1 = 1.0;
      r.seed = 40 + j;
      requests.push_back(r);
      family.push_back(core::Landscape::random(r.nu, r.param0, r.param1, r.seed));
      futures.push_back(service.submit(r));
    }
    gate.release();
    ASSERT_EQ(occupied.get().status, StatusCode::ok);

    analysis::FamilyOptions options;
    options.tolerance = requests.front().tolerance;
    options.max_iterations = static_cast<unsigned>(requests.front().max_iterations);
    const analysis::FamilyResult direct = analysis::sweep_landscape_family(
        core::MutationModel::uniform(requests.front().nu, requests.front().p), family,
        options);
    for (std::size_t j = 0; j < m; ++j) {
      const SolveReply reply = futures[j].get();
      ASSERT_EQ(reply.status, StatusCode::ok) << reply.message;
      EXPECT_EQ(reply.batch_width, m);
      EXPECT_EQ(reply.eigenvalue, direct.eigenvalues[j]);
      EXPECT_EQ(reply.residual, direct.residuals[j]);
      EXPECT_EQ(reply.iterations, direct.panel_products);
      const auto expected =
          analysis::class_concentrations(requests[j].nu, direct.eigenvectors[j]);
      ASSERT_EQ(reply.class_concentrations.size(), expected.size());
      EXPECT_EQ(std::memcmp(reply.class_concentrations.data(), expected.data(),
                            expected.size() * sizeof(double)),
                0)
          << "column " << j;
    }
  }
}

TEST(SolverService, IdenticalScenariosDedupeToOneAnswer) {
  WorkerGate gate;
  ServiceConfig config;
  config.before_batch_hook = gate.hook();
  SolverService service(config);

  auto f1 = service.submit(quick_request());
  auto f2 = service.submit(quick_request());
  gate.release();
  const SolveReply r1 = f1.get();
  const SolveReply r2 = f2.get();
  ASSERT_EQ(r1.status, StatusCode::ok);
  ASSERT_EQ(r2.status, StatusCode::ok);
  // One panel column answered both: bit-identical.
  EXPECT_EQ(std::memcmp(&r1.eigenvalue, &r2.eigenvalue, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(r1.class_concentrations.data(),
                        r2.class_concentrations.data(),
                        r1.class_concentrations.size() * sizeof(double)),
            0);
}

TEST(SolverService, OverloadShedsWithStructuredRejection) {
  WorkerGate gate;
  ServiceConfig config;
  config.queue_capacity = 2;
  config.before_batch_hook = gate.hook();
  SolverService service(config);

  // First request occupies the worker (blocked at the gate)...
  auto running = service.submit(quick_request(3.0));
  while (service.queue_stats().popped < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...two more fill the queue; the fourth must shed immediately.
  auto q1 = service.submit(quick_request(4.0));
  auto q2 = service.submit(quick_request(5.0));
  auto shed = service.submit(quick_request(6.0));
  const SolveReply rejected = shed.get();
  EXPECT_EQ(rejected.status, StatusCode::rejected_overload);
  EXPECT_FALSE(rejected.message.empty());

  // The daemon is not wedged: release the gate and everything completes.
  gate.release();
  EXPECT_EQ(running.get().status, StatusCode::ok);
  EXPECT_EQ(q1.get().status, StatusCode::ok);
  EXPECT_EQ(q2.get().status, StatusCode::ok);
  EXPECT_EQ(service.queue_stats().rejected_overload, 1u);
}

TEST(SolverService, DeadlinePassedInQueueYieldsDeadlineExceeded) {
  WorkerGate gate;
  ServiceConfig config;
  config.before_batch_hook = gate.hook();
  SolverService service(config);

  auto blocker = service.submit(quick_request(3.0));
  while (service.queue_stats().popped < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SolveRequest urgent = quick_request(4.0);
  urgent.deadline_ms = 5;
  auto doomed = service.submit(urgent);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.release();
  const SolveReply reply = doomed.get();
  EXPECT_EQ(reply.status, StatusCode::deadline_exceeded);
  EXPECT_LT(reply.deadline_slack_ms, 0.0);
  EXPECT_EQ(blocker.get().status, StatusCode::ok);

  // Still serving afterwards.
  EXPECT_EQ(service.solve(quick_request(7.0)).status, StatusCode::ok);
}

TEST(SolverService, ClientDisconnectCancelsTheWork) {
  WorkerGate gate;
  ServiceConfig config;
  config.before_batch_hook = gate.hook();
  SolverService service(config);

  auto alive = std::make_shared<std::atomic<bool>>(true);
  auto future = service.submit(quick_request(), alive);
  alive->store(false);  // client vanished while the request was queued
  gate.release();
  const SolveReply reply = future.get();
  EXPECT_EQ(reply.status, StatusCode::cancelled);
  EXPECT_EQ(service.solve(quick_request(9.0)).status, StatusCode::ok);
}

TEST(SolverService, BadRequestsAreRejectedWithoutTouchingAWorker) {
  SolverService service;
  SolveRequest bad = quick_request();
  bad.p = 0.9;
  const SolveReply reply = service.solve(bad);
  EXPECT_EQ(reply.status, StatusCode::bad_request);
  EXPECT_FALSE(reply.message.empty());
  EXPECT_EQ(service.queue_stats().accepted, 0u);
}

TEST(SolverService, WorkerThrowBecomesInternalErrorAndServiceSurvives) {
  std::atomic<bool> arm{true};
  ServiceConfig config;
  config.before_batch_hook = [&arm] {
    if (arm.exchange(false)) {
      throw testing::InjectedFault("injected worker fault");
    }
  };
  SolverService service(config);
  const SolveReply faulted = service.solve(quick_request());
  EXPECT_EQ(faulted.status, StatusCode::internal_error);
  EXPECT_NE(faulted.message.find("injected"), std::string::npos);

  // The worker survived the throw and the next request solves normally.
  const SolveReply ok = service.solve(quick_request(11.0));
  EXPECT_EQ(ok.status, StatusCode::ok) << ok.message;
}

TEST(SolverService, ShutdownDrainsQueuedRequestsWithStructuredReplies) {
  WorkerGate gate;
  ServiceConfig config;
  config.before_batch_hook = gate.hook();
  SolverService service(config);

  auto blocker = service.submit(quick_request(3.0));
  while (service.queue_stats().popped < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued = service.submit(quick_request(4.0));
  std::thread shutdown_thread([&] { service.shutdown(); });
  // shutdown() closes admission immediately; the gate then lets the blocked
  // worker observe stopping_ and drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto late = service.submit(quick_request(5.0));
  gate.release();
  shutdown_thread.join();

  EXPECT_EQ(late.get().status, StatusCode::shutting_down);
  const StatusCode queued_status = queued.get().status;
  EXPECT_TRUE(queued_status == StatusCode::shutting_down ||
              queued_status == StatusCode::ok);
  const StatusCode blocker_status = blocker.get().status;
  EXPECT_TRUE(blocker_status == StatusCode::shutting_down ||
              blocker_status == StatusCode::ok);
}

// ---------------------------------------------------------------------------
// Cooperative cancellation in the solver layers the service rides on.
// ---------------------------------------------------------------------------

TEST(Cancellation, FacadeSolveAbortsAtAnIterationBoundary) {
  solvers::SolveOptions options;
  options.should_stop = [] { return true; };
  const auto result = solvers::solve(core::MutationModel::uniform(8, 0.01),
                                     core::Landscape::single_peak(8, 10.0, 1.0),
                                     options);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.failure, solvers::SolverFailure::cancelled);
  // Cancellation is not an error the recovery rule retries.
  EXPECT_EQ(result.recovery_attempts, 0u);
}

TEST(Cancellation, ConvergedSolveIgnoresALateStopSignal) {
  // should_stop is polled AFTER the tolerance test: a solve that converges
  // on the same residual check it would have been cancelled at still
  // reports success.
  std::atomic<unsigned> polls{0};
  solvers::SolveOptions options;
  options.tolerance = 1e-2;  // converges almost immediately
  options.should_stop = [&polls] {
    polls.fetch_add(1);
    return true;
  };
  const auto result = solvers::solve(core::MutationModel::uniform(6, 0.01),
                                     core::Landscape::single_peak(6, 10.0, 1.0),
                                     options);
  if (result.converged) {
    EXPECT_EQ(result.failure, solvers::SolverFailure::none);
  } else {
    EXPECT_EQ(result.failure, solvers::SolverFailure::cancelled);
  }
}

TEST(Cancellation, EnsembleRunStopsAtAGenerationBoundary) {
  auto model = core::MutationModel::uniform(5, 0.02);
  const auto landscape = core::Landscape::single_peak(5, 5.0, 1.0);
  stochastic::EnsembleOptions options;
  options.replicas = 2;
  options.population_size = 200;
  stochastic::ReplicaEnsemble ensemble(model, landscape, options);
  std::atomic<std::uint64_t> generations{0};
  ensemble.run(1000, 0, true, [&generations] {
    return generations.fetch_add(1) >= 5;  // stop after ~5 generations
  });
  EXPECT_TRUE(ensemble.cancelled());
  EXPECT_LT(ensemble.generations_completed(), 1000u);
  // Partial statistics stay well formed (final-state frequencies).
  const auto stats = ensemble.statistics();
  ASSERT_EQ(stats.mean.size(), 32u);
  double sum = 0.0;
  for (double v : stats.mean) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Transport hardening: dead peers and timeout contracts.
// ---------------------------------------------------------------------------

TEST(FdStream, WriteToAVanishedPeerThrowsInsteadOfRaisingSigpipe) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream stream(fds[0], 1000);
  ::close(fds[1]);  // peer hangs up before we reply
  // Must surface as EPIPE -> TransportError; the default SIGPIPE
  // disposition would terminate this whole test binary instead.
  EXPECT_THROW(write_frame(stream, Frame{FrameType::pong, {}}), TransportError);
}

TEST(FdStream, ZeroTimeoutIsRejectedNotInfinite) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A zero timeout would mean an unbounded poll — one stalled peer could
  // pin a connection thread forever and hang server shutdown.
  EXPECT_THROW(FdStream(fds[0], 0), TransportError);  // ctor closed fds[0]
  FdStream stream(fds[1], 1000);
  EXPECT_THROW(stream.set_timeout_ms(0), TransportError);
  EXPECT_EQ(stream.timeout_ms(), 1000u);
}

// ---------------------------------------------------------------------------
// The daemon over a real AF_UNIX socket.
// ---------------------------------------------------------------------------

class SocketServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    socket_path_ = fs::temp_directory_path() /
                   ("qs_serve_test_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter_++) + ".sock");
    config_.socket_path = socket_path_;
    config_.io_timeout_ms = 5000;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove(socket_path_, ec);
  }

  static inline int counter_ = 0;
  fs::path socket_path_;
  SocketServerConfig config_;
};

TEST_F(SocketServerTest, SolveRoundTripOverTheWire) {
  SocketServer server(config_);
  server.start();
  Client client(socket_path_);
  EXPECT_TRUE(client.ping());
  const SolveReply reply = client.solve(quick_request());
  ASSERT_EQ(reply.status, StatusCode::ok) << reply.message;
  EXPECT_GT(reply.eigenvalue, 1.0);
  ASSERT_EQ(reply.class_concentrations.size(), 7u);

  // Second identical request over the same connection: cache hit,
  // bit-identical payload.
  const SolveReply cached = client.solve(quick_request());
  ASSERT_EQ(cached.status, StatusCode::ok);
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_EQ(std::memcmp(&cached.eigenvalue, &reply.eigenvalue, sizeof(double)), 0);
  server.stop();
}

TEST_F(SocketServerTest, MalformedRequestPayloadGetsBadRequestNotADrop) {
  SocketServer server(config_);
  server.start();

  // Hand-roll a well-framed but semantically garbage request payload.
  FdStream stream(
      [&] {
        Client probe(socket_path_);
        EXPECT_TRUE(probe.ping());  // daemon is up
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket_path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
                  0);
        return fd;
      }(),
      5000);
  Frame garbage{FrameType::solve_request, {1, 2, 3}};
  write_frame(stream, garbage);
  const Frame reply_frame = read_frame(stream);
  ASSERT_EQ(reply_frame.type, FrameType::solve_reply);
  const SolveReply reply = decode_reply(reply_frame.payload);
  EXPECT_EQ(reply.status, StatusCode::bad_request);

  // Daemon still serving after the garbage.
  Client client(socket_path_);
  EXPECT_EQ(client.solve(quick_request()).status, StatusCode::ok);
  server.stop();
}

TEST_F(SocketServerTest, RepliesToVanishedClientsNeverKillTheDaemon) {
  // The hostile pattern the SIGPIPE hardening exists for: clients that send
  // a request and close without reading the reply.  The pong and
  // bad-request replies have no liveness check at all, so many of these
  // writes land on a closed socket — each must fail only its own
  // connection thread (EPIPE -> TransportError), never the daemon.
  SocketServer server(config_);
  server.start();
  const auto connect_raw = [&] {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path_.c_str(), sizeof(addr.sun_path) - 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };
  for (int i = 0; i < 16; ++i) {
    {
      FdStream fire_and_forget(connect_raw(), 1000);
      write_frame(fire_and_forget, Frame{FrameType::ping, {}});
      // Destructor closes the socket with the pong unread.
    }
    {
      FdStream fire_and_forget(connect_raw(), 1000);
      write_frame(fire_and_forget,
                  Frame{FrameType::solve_request, {1, 2, 3}});  // bad request
    }
  }
  Client client(socket_path_);
  EXPECT_EQ(client.solve(quick_request()).status, StatusCode::ok);
  server.stop();
}

TEST_F(SocketServerTest, AbruptClientDisconnectLeavesTheDaemonServing) {
  SocketServer server(config_);
  server.start();
  {
    Client doomed(socket_path_);
    EXPECT_TRUE(doomed.ping());
    // Client object destructs here: fd closes with no goodbye.
  }
  Client client(socket_path_);
  EXPECT_EQ(client.solve(quick_request()).status, StatusCode::ok);
  EXPECT_GE(server.connections(), 2u);
  server.stop();
}

TEST_F(SocketServerTest, RetryRecoversAfterTheDaemonComesBack) {
  // No daemon yet: a plain solve throws, solve_with_retry reports the
  // transport failure as a structured outcome.
  Client client(socket_path_, 500);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.base_delay_ms = 5;
  const ClientOutcome down = client.solve_with_retry(quick_request(), policy);
  EXPECT_EQ(down.attempts, 2u);
  EXPECT_FALSE(down.last_error.empty());
  EXPECT_EQ(down.reply.status, StatusCode::internal_error);

  // Daemon appears; the same client reconnects and succeeds first try.
  SocketServer server(config_);
  server.start();
  const ClientOutcome up = client.solve_with_retry(quick_request(), policy);
  EXPECT_EQ(up.reply.status, StatusCode::ok) << up.reply.message;
  EXPECT_EQ(up.attempts, 1u);
  EXPECT_TRUE(up.last_error.empty());
  server.stop();
}

TEST_F(SocketServerTest, GracefulStopAnswersInFlightAndRefusesNew) {
  SocketServer server(config_);
  server.start();
  Client client(socket_path_);
  EXPECT_EQ(client.solve(quick_request()).status, StatusCode::ok);
  server.stop();
  EXPECT_FALSE(server.running());
  // Socket is gone: a new connect fails cleanly.
  Client late(socket_path_);
  EXPECT_FALSE(late.ping());
}

}  // namespace
}  // namespace qs::service
