// The solver service: admission-controlled, deadline-aware, batch-coalescing
// execution of solve scenarios — and the AF_UNIX daemon that serves it.
//
// Two layers, separable for testing:
//
//   SolverService — the in-process engine.  submit() runs admission control
//     (bounded core::RequestQueue; a full queue sheds with
//     REJECTED_OVERLOAD) and hands back a future.  Worker threads pop
//     batches coalesced by batch_key — requests sharing (nu, p) share a
//     mutation model Q, so the batch solves jointly through
//     analysis::solve_landscape_family: the m scenarios' landscapes become
//     the panel columns of W_j = Q F_j and every power step advances all
//     of them in one memory sweep; each reply's [Gamma_k] is read off the
//     final iterate panel.  The batch runs solvers::run_power_loop,
//     so it stops by qs_solve's rule: the relative 2-norm residual of each
//     column against the request's tolerance, with the facade's stall
//     window and health guard.  Identical scenarios within a batch
//     (byte-verified via scenario_fingerprint, never by hash alone) dedupe
//     to one column.  Before solving, each scenario consults the
//     crash-safe ScenarioCache; hits reply without touching a solver, and
//     a cached reply is bit-identical to a fresh solve of the same
//     scenario (the cache stores the exact answer fields and serves them
//     only on a fingerprint match).
//
//     Failure is data, not control flow: deadlines cancel the batch
//     cooperatively through FamilyOptions::should_stop (DEADLINE_EXCEEDED),
//     vanished clients cancel it too (CANCELLED), a worker exception
//     becomes INTERNAL_ERROR — and in every case the worker loops back to
//     pop_batch.  One request can never wedge or kill the service.
//
//   SocketServer — the transport shell: an AF_UNIX listener, one thread per
//     connection reading frames with timeouts, replies written back on the
//     same connection.  While a request is in flight the connection thread
//     watches the socket for hangup and flips the request's alive flag, so
//     a disconnect propagates into cancellation.  stop() drains
//     gracefully: the listener closes, queued requests are answered
//     SHUTTING_DOWN, in-flight batches cancel at the next iteration
//     boundary, and every connection thread is joined.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/request_queue.hpp"
#include "service/protocol.hpp"
#include "service/scenario_cache.hpp"
#include "service/stats.hpp"
#include "service/transport.hpp"

namespace qs::service {

struct ServiceConfig {
  /// Admission-control bound: requests beyond this depth shed immediately.
  std::size_t queue_capacity = 64;

  /// Worker threads popping batches.  One worker keeps batches maximally
  /// wide (every queued compatible request coalesces); more workers trade
  /// batch width for latency.
  std::size_t workers = 1;

  /// Panel width cap per batch — m of the panel Fmmp kernels; 8 matches
  /// the AVX-512 microkernel width.
  std::size_t max_batch = 8;

  /// How long a worker waits in pop_batch before re-checking shutdown.
  std::uint64_t poll_wait_ms = 20;

  /// In-memory LRU entries; the disk tier (when cache_dir is set) is
  /// unbounded and crash-safe.
  std::size_t cache_entries = 256;

  /// Durable cache directory; empty = memory-only cache.
  std::filesystem::path cache_dir;

  /// Testing seam: wraps/replaces the cache storage backend (fault
  /// injection).  Called once at construction with the filesystem backend
  /// (nullptr when cache_dir is empty); the returned storage is used.
  std::function<std::unique_ptr<CacheStorage>(std::unique_ptr<CacheStorage>)>
      wrap_cache_storage;

  /// Testing seam: runs at the top of every batch execution (after the
  /// batch is popped, before cache lookups).  A throw here exercises the
  /// worker's INTERNAL_ERROR path.
  std::function<void()> before_batch_hook;
};

/// In-process solver service (no sockets).  Thread-safe.
class SolverService {
 public:
  explicit SolverService(const ServiceConfig& config = {});
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Admission control + enqueue.  The future always becomes ready with a
  /// structured reply — overload and shutdown reject synchronously, every
  /// admitted request is answered by a worker (or by drain).  `alive`
  /// (optional) is the caller's liveness flag: when it flips false the
  /// request's work is cancelled and the reply status becomes CANCELLED.
  std::future<SolveReply> submit(const SolveRequest& request,
                                 std::shared_ptr<std::atomic<bool>> alive = nullptr);

  /// Blocking convenience: submit + wait.
  SolveReply solve(const SolveRequest& request);

  /// Graceful drain: close admission, answer queued requests with
  /// SHUTTING_DOWN, cancel in-flight batches, join workers.  Idempotent.
  void shutdown();

  core::QueueStats queue_stats() const { return queue_->stats(); }
  CacheStats cache_stats() const { return cache_->stats(); }

  /// Requests fully answered (any status) since construction.
  std::uint64_t completed() const { return completed_.load(); }

  /// Live-introspection snapshot: counter/histogram reads only (the queue
  /// mutex is held just long enough to copy its stats struct) — it never
  /// enqueues work, waits on a worker, or touches the solver path.
  /// `connections` is left 0 for the transport shell to fill.
  ServiceStatsSnapshot stats_snapshot() const;

 private:
  struct Pending {
    SolveRequest request;
    std::uint64_t key = 0;             // scenario_key(request): index only
    std::vector<std::uint8_t> fingerprint;  // equality witness for key
    std::uint64_t deadline_ns = 0;     // absolute monotonic deadline, 0 = none
    std::shared_ptr<std::atomic<bool>> alive;
    std::shared_ptr<std::promise<SolveReply>> promise;
  };
  using Queue = core::RequestQueue<Pending>;
  using Entry = Queue::Entry;

  void worker_loop();
  void execute_batch(std::vector<Entry>& batch);
  void deliver(Entry& entry, SolveReply reply, std::uint32_t batch_width);
  static void record_request_metrics(const SolveReply& reply);

  ServiceConfig config_;
  std::unique_ptr<ScenarioCache> cache_;
  std::unique_ptr<Queue> queue_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> completed_{0};
  std::uint64_t start_ns_ = 0;  ///< Construction time (uptime baseline).
  /// Validated submissions per landscape kind (kind - 1), for the STATS
  /// request-mix section.
  std::array<std::atomic<std::uint64_t>, 4> request_mix_{};
  std::once_flag shutdown_once_;
};

struct SocketServerConfig {
  std::filesystem::path socket_path;  ///< AF_UNIX path; unlinked on start/stop.
  unsigned io_timeout_ms = 5000;      ///< Per-chunk read/write timeout.
  ServiceConfig service;
};

/// AF_UNIX daemon shell around SolverService.
class SocketServer {
 public:
  explicit SocketServer(const SocketServerConfig& config);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the accept thread.  Throws TransportError
  /// on bind failure (stale socket files are unlinked first).
  void start();

  /// Graceful drain: stop accepting, drain the service, join every
  /// connection thread, unlink the socket.  Idempotent; safe from a signal
  /// handler *thread* (not from the handler itself — qs_serve's handler
  /// only sets a flag).
  void stop();

  bool running() const { return running_.load(); }
  const std::filesystem::path& socket_path() const { return config_.socket_path; }
  SolverService& service() { return *service_; }

  /// Connections accepted since start().
  std::uint64_t connections() const { return connections_.load(); }

 private:
  void accept_loop();
  void serve_connection(int fd);
  void reap_finished_locked();

  SocketServerConfig config_;
  std::unique_ptr<SolverService> service_;
  int listen_fd_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> connections_{0};

  struct Conn {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::mutex threads_mutex_;
  std::vector<Conn> conn_threads_;
};

}  // namespace qs::service
