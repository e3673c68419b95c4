#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>

#include "analysis/sweep.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/signals.hpp"
#include "support/timer.hpp"

namespace qs::service {
namespace {

constexpr double kNsPerMs = 1e6;

core::Landscape build_landscape(const SolveRequest& request) {
  const unsigned nu = request.nu;
  switch (request.landscape) {
    case LandscapeKind::single_peak:
      return core::Landscape::single_peak(nu, request.param0, request.param1);
    case LandscapeKind::linear:
      return core::Landscape::linear(nu, request.param0, request.param1);
    case LandscapeKind::random:
      return core::Landscape::random(nu, request.param0, request.param1,
                                     request.seed);
    case LandscapeKind::flat:
      return core::Landscape::flat(nu, request.param0);
  }
  throw std::runtime_error("unknown landscape kind");
}

SolveReply make_reply(StatusCode status, std::string message = {}) {
  SolveReply reply;
  reply.status = status;
  reply.message = std::move(message);
  return reply;
}

}  // namespace

SolverService::SolverService(const ServiceConfig& config) : config_(config) {
  start_ns_ = monotonic_ns();
  std::unique_ptr<CacheStorage> storage;
  if (!config_.cache_dir.empty()) {
    storage = std::make_unique<FsCacheStorage>(config_.cache_dir);
  }
  if (config_.wrap_cache_storage) {
    storage = config_.wrap_cache_storage(std::move(storage));
  }
  cache_ = std::make_unique<ScenarioCache>(std::max<std::size_t>(1, config_.cache_entries),
                                           std::move(storage));
  queue_ = std::make_unique<Queue>(std::max<std::size_t>(1, config_.queue_capacity));
  const std::size_t workers = std::max<std::size_t>(1, config_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SolverService::~SolverService() { shutdown(); }

std::future<SolveReply> SolverService::submit(
    const SolveRequest& request, std::shared_ptr<std::atomic<bool>> alive) {
  auto promise = std::make_shared<std::promise<SolveReply>>();
  std::future<SolveReply> future = promise->get_future();

  // Reject before enqueue: a malformed scenario must never occupy a queue
  // slot or reach a worker.
  if (std::string violation = validate(request); !violation.empty()) {
    promise->set_value(make_reply(StatusCode::bad_request, std::move(violation)));
    ++completed_;
    return future;
  }
  // Request mix counts every well-formed submission, shed or admitted —
  // the STATS view of offered (not just served) load per landscape kind.
  const auto kind_index = static_cast<std::size_t>(request.landscape) - 1;
  if (kind_index < request_mix_.size()) {
    request_mix_[kind_index].fetch_add(1, std::memory_order_relaxed);
  }
  if (stopping_.load()) {
    promise->set_value(make_reply(StatusCode::shutting_down, "service draining"));
    ++completed_;
    return future;
  }

  Pending pending;
  pending.request = request;
  pending.key = scenario_key(request);
  pending.fingerprint = scenario_fingerprint(request);
  if (request.deadline_ms != 0) {
    pending.deadline_ns = monotonic_ns() + request.deadline_ms * 1000000ull;
  }
  pending.alive = std::move(alive);
  pending.promise = promise;

  const std::uint64_t deadline_ns = pending.deadline_ns;
  const core::Admission admission =
      queue_->push(std::move(pending), batch_key(request), deadline_ns);
  switch (admission) {
    case core::Admission::accepted:
      break;
    case core::Admission::rejected_overload:
      promise->set_value(make_reply(
          StatusCode::rejected_overload,
          "queue full (" + std::to_string(config_.queue_capacity) +
              " pending); retry with backoff"));
      ++completed_;
      break;
    case core::Admission::rejected_closed:
      promise->set_value(make_reply(StatusCode::shutting_down, "service draining"));
      ++completed_;
      break;
  }
  return future;
}

SolveReply SolverService::solve(const SolveRequest& request) {
  return submit(request).get();
}

void SolverService::shutdown() {
  std::call_once(shutdown_once_, [this] {
    stopping_.store(true);
    queue_->close();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    // Export the end-of-life totals alongside the per-request values the
    // workers recorded as they went.
    auto& rec = obs::metrics();
    const core::QueueStats qs = queue_->stats();
    const CacheStats cs = cache_->stats();
    rec.set_value("service.requests.accepted", static_cast<double>(qs.accepted));
    rec.set_value("service.requests.rejected_overload",
                  static_cast<double>(qs.rejected_overload));
    rec.set_value("service.requests.expired", static_cast<double>(qs.expired));
    rec.set_value("service.batches", static_cast<double>(qs.batches));
    rec.set_value("service.cache.hits", static_cast<double>(cs.hits));
    rec.set_value("service.cache.misses", static_cast<double>(cs.misses));
    rec.set_value("service.cache.quarantined", static_cast<double>(cs.quarantined));
    rec.set_value("service.cache.collisions", static_cast<double>(cs.collisions));
    rec.set_value("service.completed", static_cast<double>(completed_.load()));
  });
}

ServiceStatsSnapshot SolverService::stats_snapshot() const {
  ServiceStatsSnapshot out;
  out.uptime_seconds =
      static_cast<double>(monotonic_ns() - start_ns_) * 1e-9;
  out.queue_depth = queue_->depth();
  out.queue = queue_->stats();
  out.cache = cache_->stats();
  out.completed = completed_.load();
  for (std::size_t i = 0; i < request_mix_.size(); ++i) {
    out.request_mix[i] = request_mix_[i].load(std::memory_order_relaxed);
  }
  for (const obs::NamedHistogram& h : obs::snapshot_histograms()) {
    out.histograms.push_back(obs::summarize(h.name, h.snapshot));
  }
  return out;
}

void SolverService::record_request_metrics(const SolveReply& reply) {
  // Last-value export per request; the reply itself carries the same fields
  // back to the client, so the recorder is the operator's view, not the
  // client's.
  auto& rec = obs::metrics();
  rec.set_value("service.last.queue_wait_ms", reply.queue_wait_ms);
  rec.set_value("service.last.batch_width", static_cast<double>(reply.batch_width));
  rec.set_value("service.last.cache_hit", reply.cache_hit ? 1.0 : 0.0);
  rec.set_value("service.last.deadline_slack_ms", reply.deadline_slack_ms);
  rec.set_info("service.last.status", to_string(reply.status));
}

void SolverService::deliver(Entry& entry, SolveReply reply, std::uint32_t batch_width) {
  if (!entry.value.promise) return;  // already answered
  const std::uint64_t now = monotonic_ns();
  reply.queue_wait_ms =
      static_cast<double>(now - entry.enqueued_ns) / kNsPerMs;
  reply.batch_width = batch_width;
  reply.trace_id = entry.value.request.trace_id;
  if (entry.value.deadline_ns != 0) {
    reply.deadline_slack_ms =
        (static_cast<double>(entry.value.deadline_ns) - static_cast<double>(now)) /
        kNsPerMs;
  }
  // End-to-end request span: starts at the client's send timestamp when it
  // was stamped and is plausible (CLOCK_MONOTONIC is shared across the
  // processes of one host), else at enqueue.
  std::uint64_t started = entry.enqueued_ns;
  const std::uint64_t sent = entry.value.request.client_send_ns;
  if (sent != 0 && sent <= started) started = sent;
  obs::span_event("service.request", obs::Category::app, started, now - started,
                  entry.value.request.trace_id,
                  static_cast<std::int64_t>(batch_width));
  record_request_metrics(reply);
  entry.value.promise->set_value(std::move(reply));
  entry.value.promise.reset();
  ++completed_;
}

void SolverService::worker_loop() {
  const std::uint64_t wait_ns = config_.poll_wait_ms * 1000000ull;
  const std::size_t max_batch = std::max<std::size_t>(1, config_.max_batch);
  for (;;) {
    std::vector<Entry> batch = queue_->pop_batch(
        max_batch, wait_ns, [this](Entry&& expired) {
          Entry e = std::move(expired);
          deliver(e, make_reply(StatusCode::deadline_exceeded,
                                "deadline passed while queued"),
                  0);
        });
    if (batch.empty()) {
      if (stopping_.load()) return;
      continue;
    }
    if (stopping_.load()) {
      // Drain mode: everything still queued is answered, never solved.
      for (Entry& entry : batch) {
        deliver(entry, make_reply(StatusCode::shutting_down, "service draining"), 0);
      }
      continue;
    }
    try {
      execute_batch(batch);
    } catch (const std::exception& e) {
      // The worker survives anything a batch throws: every unanswered
      // member gets a structured INTERNAL_ERROR and the loop returns to
      // pop_batch.  This is the daemon-never-wedges invariant the
      // fault-injection suite leans on.
      for (Entry& entry : batch) {
        deliver(entry, make_reply(StatusCode::internal_error, e.what()),
                static_cast<std::uint32_t>(batch.size()));
      }
    }
  }
}

void SolverService::execute_batch(std::vector<Entry>& batch) {
  if (config_.before_batch_hook) config_.before_batch_hook();

  const std::uint64_t now = monotonic_ns();
  const auto width = static_cast<std::uint32_t>(batch.size());

  // One batch span linking N request spans: the batch runs under the first
  // traced member's id (else a freshly minted one), so every span recorded
  // below — triage, cache lookups, the joint solve's iterations — carries
  // the trace id a client can filter the merged timeline by.  Each member
  // additionally gets a queue-wait span under its own id.
  obs::TraceContext batch_trace;
  for (const Entry& entry : batch) {
    obs::span_event("service.queue_wait", obs::Category::app,
                    entry.enqueued_ns, now - entry.enqueued_ns,
                    entry.value.request.trace_id);
    if (batch_trace.trace_id == 0) {
      batch_trace.trace_id = entry.value.request.trace_id;
    }
  }
  if (batch_trace.trace_id == 0 && obs::compiled_in() && obs::enabled()) {
    batch_trace.trace_id = obs::mint_trace_id();
  }
  const obs::TraceScope batch_scope(batch_trace);
  QS_TRACE_SPAN_ARG("service.batch", app, width);

  obs::Histogram& cache_lookup_hist = obs::histogram("service.cache_lookup");
  obs::Histogram& solve_hist = obs::histogram("service.solve");

  // Pre-solve triage: dead clients, missed deadlines, cache hits.
  std::vector<Entry*> to_solve;
  for (Entry& entry : batch) {
    Pending& p = entry.value;
    if (p.alive && !p.alive->load()) {
      deliver(entry, make_reply(StatusCode::cancelled, "client disconnected"), width);
      continue;
    }
    if (p.deadline_ns != 0 && p.deadline_ns <= now) {
      deliver(entry,
              make_reply(StatusCode::deadline_exceeded, "deadline passed in queue"),
              width);
      continue;
    }
    const std::uint64_t lookup_start = monotonic_ns();
    auto hit = cache_->lookup(p.key, p.fingerprint);
    cache_lookup_hist.record_ns(monotonic_ns() - lookup_start);
    if (hit) {
      SolveReply reply = make_reply(StatusCode::ok);
      reply.eigenvalue = hit->eigenvalue;
      reply.residual = hit->residual;
      reply.iterations = hit->iterations;
      reply.class_concentrations = std::move(hit->class_concentrations);
      reply.cache_hit = true;
      deliver(entry, std::move(reply), width);
      continue;
    }
    to_solve.push_back(&entry);
  }
  if (to_solve.empty()) return;

  // Batch keys are hashes: equal keys *should* mean equal (nu, p), but the
  // panel solve requires it, so partition by the actual values — a hash
  // collision costs batching width, never correctness.
  while (!to_solve.empty()) {
    const std::uint32_t nu = to_solve.front()->value.request.nu;
    const double p = to_solve.front()->value.request.p;
    std::vector<Entry*> group;
    std::vector<Entry*> rest;
    for (Entry* entry : to_solve) {
      if (entry->value.request.nu == nu && entry->value.request.p == p) {
        group.push_back(entry);
      } else {
        rest.push_back(entry);
      }
    }
    to_solve = std::move(rest);

    // Dedupe identical scenarios: one panel column answers them all.
    // Identity is the canonical fingerprint, not the 64-bit key — a hash
    // collision may cost a duplicate column, never merge two different
    // scenarios onto one answer.  Linear scan: the group is at most
    // max_batch wide.
    std::vector<const SolveRequest*> scenarios;
    std::vector<const std::vector<std::uint8_t>*> column_fingerprints;
    std::vector<std::size_t> entry_column(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      const Pending& pending = group[i]->value;
      std::size_t col = scenarios.size();
      for (std::size_t j = 0; j < column_fingerprints.size(); ++j) {
        if (*column_fingerprints[j] == pending.fingerprint) {
          col = j;
          break;
        }
      }
      if (col == scenarios.size()) {
        scenarios.push_back(&pending.request);
        column_fingerprints.push_back(&pending.fingerprint);
      }
      entry_column[i] = col;
    }

    std::vector<core::Landscape> family;
    family.reserve(scenarios.size());
    double tolerance = scenarios.front()->tolerance;
    std::uint64_t max_iterations = scenarios.front()->max_iterations;
    bool build_failed = false;
    try {
      for (const SolveRequest* scenario : scenarios) {
        family.push_back(build_landscape(*scenario));
        tolerance = std::min(tolerance, scenario->tolerance);
        max_iterations = std::max(max_iterations, scenario->max_iterations);
      }
    } catch (const std::exception& e) {
      for (Entry* entry : group) {
        deliver(*entry, make_reply(StatusCode::bad_request, e.what()), width);
      }
      build_failed = true;
    }
    if (build_failed) continue;

    // Cooperative cancellation token: the joint solve keeps running while
    // ANY member still wants the answer; once every member's deadline
    // passed or client vanished (or the service is draining), the next
    // iteration boundary aborts it.
    struct Watch {
      std::uint64_t deadline_ns;
      std::shared_ptr<std::atomic<bool>> alive;
    };
    std::vector<Watch> watches;
    watches.reserve(group.size());
    for (Entry* entry : group) {
      watches.push_back({entry->value.deadline_ns, entry->value.alive});
    }
    analysis::FamilyOptions options;
    options.tolerance = tolerance;
    options.max_iterations = static_cast<unsigned>(
        std::min<std::uint64_t>(max_iterations, 1000000));
    options.should_stop = [this, &watches] {
      if (stopping_.load()) return true;
      const std::uint64_t t = monotonic_ns();
      for (const Watch& w : watches) {
        const bool expired = w.deadline_ns != 0 && w.deadline_ns <= t;
        const bool dead = w.alive && !w.alive->load();
        if (!expired && !dead) return false;  // someone still wants it
      }
      return true;
    };

    const core::MutationModel model = core::MutationModel::uniform(nu, p);
    const std::uint64_t solve_start = monotonic_ns();
    std::optional<analysis::FamilyPanel> solved;
    solved.emplace([&] {
      QS_TRACE_SPAN_ARG("service.solve", app, scenarios.size());
      return analysis::solve_landscape_family(model, family, options);
    }());
    // Every column's Gamma is read off the iterate panel in one pass: the
    // service keeps no eigenvector.
    const analysis::FamilyOutcome result = *solved;
    const std::vector<std::vector<double>> classes =
        result.cancelled ? std::vector<std::vector<double>>{}
                         : solved->class_concentrations();
    if (scenarios.size() > 1) {
      // A wide batch frees its panels and landscapes before any reply goes
      // out, so a client acting on its answer never finds them still held.
      // A one-column batch holds two n-vectors and one landscape; it frees
      // them after replying, off the reply's path.
      solved.reset();
      family.clear();
    }

    const std::uint64_t done = monotonic_ns();
    solve_hist.record_ns(done - solve_start);
    for (std::size_t i = 0; i < group.size(); ++i) {
      Entry& entry = *group[i];
      const Pending& pending = entry.value;
      const std::size_t col = entry_column[i];
      if (result.cancelled) {
        if (stopping_.load()) {
          deliver(entry, make_reply(StatusCode::shutting_down, "service draining"),
                  width);
        } else if (pending.alive && !pending.alive->load()) {
          deliver(entry, make_reply(StatusCode::cancelled, "client disconnected"),
                  width);
        } else {
          deliver(entry,
                  make_reply(StatusCode::deadline_exceeded,
                             "deadline passed mid-solve; aborted at an "
                             "iteration boundary"),
                  width);
        }
        continue;
      }
      const double residual = result.residuals[col];
      if (!(residual <= pending.request.tolerance)) {
        deliver(entry,
                make_reply(StatusCode::solver_failure,
                           "did not converge: residual " + std::to_string(residual) +
                               " above tolerance after " +
                               std::to_string(result.panel_products) +
                               " panel products"),
                width);
        continue;
      }
      SolveReply reply = make_reply(StatusCode::ok);
      reply.eigenvalue = result.eigenvalues[col];
      reply.residual = residual;
      reply.iterations = result.panel_products;
      reply.class_concentrations = classes[col];

      CacheEntry cached;
      cached.eigenvalue = reply.eigenvalue;
      cached.residual = reply.residual;
      cached.iterations = reply.iterations;
      cached.class_concentrations = reply.class_concentrations;
      cached.fingerprint = pending.fingerprint;
      cache_->store(pending.key, cached);

      // A member whose deadline passed during the solve still missed it,
      // even though the batch kept running for the others.
      if (pending.deadline_ns != 0 && pending.deadline_ns <= done) {
        deliver(entry,
                make_reply(StatusCode::deadline_exceeded,
                           "deadline passed mid-solve (answer cached for retry)"),
                width);
        continue;
      }
      deliver(entry, std::move(reply), width);
    }
  }
}

// ---------------------------------------------------------------------------
// SocketServer
// ---------------------------------------------------------------------------

SocketServer::SocketServer(const SocketServerConfig& config) : config_(config) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  if (running_.load()) return;
  // A client may close its socket at any point between our liveness checks
  // and a reply write; the write must surface as EPIPE -> TransportError
  // (handled per connection), never as a process-killing SIGPIPE.
  // FdStream::write_all also sends with MSG_NOSIGNAL — this covers every
  // other fd the daemon might write.
  ignore_sigpipe();
  service_ = std::make_unique<SolverService>(config_.service);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw TransportError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string path = config_.socket_path.string();
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw TransportError("socket path too long for AF_UNIX: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // a stale socket file from a crashed daemon
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw TransportError("bind " + path + ": " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw TransportError("listen " + path + ": " + std::strerror(err));
  }
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketServer::stop() {
  if (!running_.exchange(false)) {
    if (service_) service_->shutdown();
    return;
  }
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Drain order matters: answer every queued/in-flight request first so the
  // connection threads waiting on futures unblock, then join them.
  service_->shutdown();
  {
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    for (Conn& conn : conn_threads_) {
      if (conn.thread.joinable()) conn.thread.join();
    }
    conn_threads_.clear();
  }
  ::unlink(config_.socket_path.string().c_str());
}

void SocketServer::accept_loop() {
  while (running_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 100);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      break;  // listener shut down
    }
    ++connections_;
    const std::lock_guard<std::mutex> lock(threads_mutex_);
    reap_finished_locked();
    Conn conn;
    conn.done = std::make_shared<std::atomic<bool>>(false);
    auto done = conn.done;
    conn.thread = std::thread([this, fd, done] {
      serve_connection(fd);
      done->store(true);
    });
    conn_threads_.push_back(std::move(conn));
  }
}

void SocketServer::reap_finished_locked() {
  // Join threads whose connections already ended so a long-lived daemon
  // does not accumulate one thread handle per past client.
  auto it = conn_threads_.begin();
  while (it != conn_threads_.end()) {
    if (it->done->load()) {
      if (it->thread.joinable()) it->thread.join();
      it = conn_threads_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::serve_connection(int fd) {
  try {
    FdStream stream(fd, config_.io_timeout_ms);
    while (running_.load()) {
      // Idle wait in short slices so shutdown is never blocked on a silent
      // client; the per-chunk io timeout only starts once bytes flow.
      pollfd pfd{};
      pfd.fd = stream.fd();
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, 100);
      if (rc < 0 && errno != EINTR) return;
      if (rc <= 0) continue;
      if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return;
      if ((pfd.revents & POLLIN) == 0 && (pfd.revents & POLLHUP) != 0) return;

      Frame frame;
      try {
        frame = read_frame(stream);
      } catch (const TransportError&) {
        return;  // peer gone or stalled mid-frame
      }
      if (frame.type == FrameType::ping) {
        write_frame(stream, Frame{FrameType::pong, {}});
        continue;
      }
      if (frame.type == FrameType::stats_request) {
        // Answered inline off the service's counters: a STATS probe works
        // even when every worker is busy and the queue is full.
        ServiceStatsSnapshot stats = service_->stats_snapshot();
        stats.connections = connections_.load();
        const std::string text = render_stats_text(stats);
        write_frame(stream, Frame{FrameType::stats_reply,
                                  std::vector<std::uint8_t>(text.begin(),
                                                            text.end())});
        continue;
      }
      if (frame.type != FrameType::solve_request) {
        continue;  // replies/pongs from a confused peer: ignore, stay up
      }

      SolveReply reply;
      bool have_reply = false;
      SolveRequest request;
      try {
        request = decode_request(frame.payload);
      } catch (const ProtocolError& e) {
        // The frame itself was well-formed (length-prefixed, under the
        // cap), only the request payload was malformed — the connection is
        // still in sync, so answer structurally instead of dropping it.
        reply.status = StatusCode::bad_request;
        reply.message = e.what();
        have_reply = true;
      }

      if (!have_reply) {
        auto alive = std::make_shared<std::atomic<bool>>(true);
        std::future<SolveReply> future = service_->submit(request, alive);
        // Watch the socket while the solve runs: a client that hangs up
        // mid-solve flips `alive`, which the batch's cancellation token
        // reads at the next iteration boundary.
        for (;;) {
          if (future.wait_for(std::chrono::milliseconds(20)) ==
              std::future_status::ready) {
            reply = future.get();
            break;
          }
          if (stream.peer_closed()) {
            alive->store(false);
            reply = future.get();  // service still answers (status: cancelled)
            return;                // nobody left to write to
          }
        }
      }
      write_frame(stream, Frame{FrameType::solve_reply, encode(reply)});
    }
  } catch (const std::exception&) {
    // Connection-scoped failure only: the thread ends, the daemon serves on.
  }
}

}  // namespace qs::service
