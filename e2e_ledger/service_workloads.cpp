// Service-side workloads: serve_stream and serve_hit drive an in-process
// SocketServer through one Client connection over AF_UNIX; study_batch8
// submits deterministic 8-wide rounds to an in-process SolverService.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>

#include "analysis/error_classes.hpp"
#include "analysis/sweep.hpp"
#include "core/landscape.hpp"
#include "core/mutation_model.hpp"
#include "obs/histogram.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "workloads.hpp"

namespace ledger {
namespace {

namespace svc = qs::service;

std::filesystem::path socket_path() {
  const std::filesystem::path dir = ".bench_build";
  std::filesystem::create_directories(dir);
  return dir / ("e2e_ledger-" + std::to_string(::getpid()) + ".sock");
}

/// Summary of one named service histogram (sum and count are exact; the
/// binned quantiles are not, so the ledger only uses the mean).
qs::obs::HistogramSummary service_histogram(const svc::ServiceStatsSnapshot& stats,
                                            const std::string& name) {
  for (const qs::obs::HistogramSummary& h : stats.histograms) {
    if (h.name == name) return h;
  }
  return {};
}

/// The daemon under test: one worker, memory-only cache, one connected
/// client.  Its threads inherit the calling thread's CPU mask.
class Daemon {
 public:
  Daemon() : server_(config()), client_(server_.socket_path()) {
    server_.start();
    client_.ping();
  }

  svc::Client& client() { return client_; }
  svc::SolverService& service() { return server_.service(); }

 private:
  static svc::SocketServerConfig config() {
    svc::SocketServerConfig c;
    c.socket_path = socket_path();
    c.service.workers = 1;
    c.service.cache_entries = std::size_t{1} << 16;
    return c;
  }

  svc::SocketServer server_;
  svc::Client client_;
};

/// Wall time of one encode/decode of the round trip's request and reply
/// frames, in microseconds (mean of a few repetitions: a single pass is a
/// few hundred nanoseconds).
double protocol_us(svc::SolveRequest request, const svc::SolveReply& reply) {
  constexpr int kReps = 8;
  request.trace_id = reply.trace_id;  // the frame the client actually sent
  request.client_send_ns = 1;
  std::uint64_t sink = 0;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < kReps; ++i) {
    sink += svc::decode_request(svc::encode(request)).nu;
    sink += svc::decode_reply(svc::encode(reply)).iterations;
  }
  const std::uint64_t t1 = now_ns();
  asm volatile("" : : "r"(sink) : "memory");
  return static_cast<double>(t1 - t0) * 1e-3 / kReps;
}

/// Per-request traced timings of a service round trip.
struct RoundTrip {
  double rtt_us = 0.0;       ///< Client send to reply decoded.
  double server_us = 0.0;    ///< reply.queue_wait_ms: enqueue to delivery.
  double protocol_us = 0.0;  ///< Re-timed encode/decode of the same frames.
};

void add_transport_rows(const std::vector<RoundTrip>& trips, Report& layers) {
  Samples protocol, transport, server;
  for (const RoundTrip& t : trips) {
    protocol.add(t.protocol_us);
    transport.add(t.rtt_us - t.server_us - t.protocol_us);
    server.add(t.server_us);
  }
  layers.add("service.protocol_us", protocol.median(), "us");
  layers.add("service.transport_us", transport.median(), "us");
  layers.add("service.server_us", server.median(), "us");
}

/// Share of the summed round trips that neither the client-side rows
/// (transport + protocol = rtt - server) nor the server's cache-lookup and
/// solve histograms cover: queue wake-ups, landscape builds, reply assembly.
double service_unaccounted(const std::vector<RoundTrip>& trips,
                           const svc::ServiceStatsSnapshot& stats) {
  double rtt = 0.0, server = 0.0;
  for (const RoundTrip& t : trips) {
    rtt += t.rtt_us;
    server += t.server_us;
  }
  const double covered_server_us =
      (service_histogram(stats, "service.cache_lookup").sum +
       service_histogram(stats, "service.solve").sum) *
      1e6;
  return rtt > 0.0 ? (server - covered_server_us) / rtt : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// serve_stream: alternating misses and hits.  Miss j cycles nu through
// 12/14/16 and the landscape through all four kinds; every other request
// repeats one of the last 64 misses and must be a bit-identical cache hit.
// Latency percentiles cover misses only (the hit/miss bimodality would
// otherwise decide the median); serve_hit gates the hit path.
// ---------------------------------------------------------------------------

void serve_stream(const RunSpec& spec, Gate& gate, Outcome& out) {
  constexpr std::size_t kHitWindow = 64;
  const PinnedThread pin(benchmark_cpu());

  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<Inputs> inputs;
  std::deque<std::pair<svc::SolveRequest, svc::SolveReply>> misses;  // last kHitWindow
  std::uint64_t miss_count = 0;
  std::uint64_t requests = 0;

  const auto one = [&](RoundTrip* trip) -> bool {
    const bool miss = requests % 2 == 0;
    ++requests;
    svc::SolveRequest request;
    const svc::SolveReply* filled = nullptr;
    if (miss) {
      request = service_scenario(*inputs, miss_count);
    } else {
      const auto& entry = misses[inputs->index(misses.size())];
      request = entry.first;
      filled = &entry.second;
    }
    svc::SolveReply reply;
    const std::uint64_t t0 = now_ns();
    try {
      reply = daemon->client().solve(request);
    } catch (const std::exception& e) {
      gate.check(false, std::string("serve_stream transport: ") + e.what());
      return false;
    }
    const std::uint64_t t1 = now_ns();
    OpCheck check;
    check_reply(request, reply, check);
    check.require(reply.batch_width == 1, "serve_stream batch width != 1");
    check.require(reply.cache_hit == !miss, miss ? "miss served from cache"
                                                 : "repeat was not a cache hit");
    if (filled != nullptr) {
      check.require(same_answer(reply, *filled), "cache hit differs from its miss");
    }
    gate.record(check.violations());
    if (miss) {
      out.latency_ms.add(static_cast<double>(t1 - t0) * 1e-6);
      ++miss_count;
      misses.emplace_back(request, reply);
      if (misses.size() > kHitWindow) misses.pop_front();
    }
    if (trip != nullptr) {
      trip->rtt_us = static_cast<double>(t1 - t0) * 1e-3;
      trip->server_us = reply.queue_wait_ms * 1e3;
      trip->protocol_us = protocol_us(request, reply);
    }
    return true;
  };

  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    daemon.reset();
    misses.clear();
    miss_count = 0;
    requests = 0;
    out.latency_ms.clear();
    const double t0 = now_s();
    inputs = std::make_unique<Inputs>(spec.seed, 1);
    daemon = std::make_unique<Daemon>();
    while (miss_count < kScenarioCycle || requests % 2 != 0) {
      if (!one(nullptr)) return;
    }
    out.setup_s.add(now_s() - t0);
  }
  out.latency_ms.clear();
  if (spec.traced) qs::obs::reset_histograms();
  const svc::CacheStats before = daemon->service().cache_stats();

  std::vector<RoundTrip> trips;
  Samples hit_ms;
  const double start = now_s();
  std::uint64_t timed = 0;
  // Stop only after a hit that closes a scenario cycle: hits and misses stay
  // exactly balanced and every (nu, kind) group keeps its exact share.
  while (now_s() - start < spec.seconds || requests % 2 != 0 ||
         miss_count % kScenarioCycle != 0) {
    RoundTrip trip;
    const bool miss = requests % 2 == 0;
    if (!one(spec.traced ? &trip : nullptr)) break;
    ++timed;
    if (spec.traced) trips.push_back(trip);
    if (!miss && spec.traced) hit_ms.add(trip.rtt_us * 1e-3);
  }
  out.elapsed_s = now_s() - start;
  out.ops = timed;

  const svc::ServiceStatsSnapshot stats = daemon->service().stats_snapshot();
  const double hits = static_cast<double>(stats.cache.hits - before.hits);
  const double lookups = hits + static_cast<double>(stats.cache.misses - before.misses);
  const double stores = static_cast<double>(stats.cache.stores - before.stores);
  const double hit_ratio = lookups > 0.0 ? hits / lookups : 0.0;
  gate.check(hit_ratio == 0.5, "serve_stream cache hit ratio != 0.5");
  gate.check(stores == lookups - hits, "serve_stream stores != misses");
  out.counts.add("service.cache_hit_ratio", hit_ratio, "ratio");
  out.counts.add("service.stores_per_miss", stores / std::max(1.0, lookups - hits),
                 "count");
  out.counts.add("service.requests", static_cast<double>(timed), "count");

  if (spec.traced) {
    out.layers.add("service.cache_hit_ratio", hit_ratio, "ratio");
    out.layers.add("service.hit_latency_p50_ms", hit_ms.median(), "ms");
    out.layers.add("service.miss_solve_ms",
                   service_histogram(stats, "service.solve").sum * 1e3 /
                       std::max(1.0, lookups - hits),
                   "ms");
    out.unaccounted_share = service_unaccounted(trips, stats);
  }
}

// ---------------------------------------------------------------------------
// serve_hit: a closed loop of cache hits over the 27 scenarios of one
// (nu, kind) cycle, filled during set-up.  Nothing is solved while timing:
// the loop measures transport, protocol, admission, queue hand-off and
// cache lookup — the service's fast path.
// ---------------------------------------------------------------------------

void serve_hit(const RunSpec& spec, Gate& gate, Outcome& out) {
  const PinnedThread pin(benchmark_cpu());

  std::unique_ptr<Daemon> daemon;
  std::vector<std::pair<svc::SolveRequest, svc::SolveReply>> filled;
  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    daemon.reset();
    filled.clear();
    const double t0 = now_s();
    Inputs inputs(spec.seed, 2);
    daemon = std::make_unique<Daemon>();
    for (std::uint64_t j = 0; j < kScenarioCycle; ++j) {
      const svc::SolveRequest request = service_scenario(inputs, j);
      svc::SolveReply reply;
      try {
        reply = daemon->client().solve(request);
      } catch (const std::exception& e) {
        gate.check(false, std::string("serve_hit transport: ") + e.what());
        return;
      }
      OpCheck check;
      check_reply(request, reply, check);
      check.require(!reply.cache_hit, "serve_hit fill served from cache");
      gate.record(check.violations());
      filled.emplace_back(request, reply);
    }
    out.setup_s.add(now_s() - t0);
  }
  if (spec.traced) qs::obs::reset_histograms();
  const svc::CacheStats before = daemon->service().cache_stats();

  Inputs picks(spec.seed, 3);
  std::vector<RoundTrip> trips;
  const double start = now_s();
  std::uint64_t timed = 0;
  while (now_s() - start < spec.seconds) {
    const auto& [request, first] = filled[picks.index(filled.size())];
    svc::SolveReply reply;
    const std::uint64_t t0 = now_ns();
    try {
      reply = daemon->client().solve(request);
    } catch (const std::exception& e) {
      gate.check(false, std::string("serve_hit transport: ") + e.what());
      break;
    }
    const std::uint64_t t1 = now_ns();
    ++timed;
    out.latency_ms.add(static_cast<double>(t1 - t0) * 1e-6);
    OpCheck check;
    check_reply(request, reply, check);
    check.require(reply.cache_hit, "serve_hit request was not a cache hit");
    check.require(reply.batch_width == 1, "serve_hit batch width != 1");
    check.require(same_answer(reply, first), "cache hit differs from its miss");
    gate.record(check.violations());
    if (spec.traced) {
      RoundTrip trip;
      trip.rtt_us = static_cast<double>(t1 - t0) * 1e-3;
      trip.server_us = reply.queue_wait_ms * 1e3;
      trip.protocol_us = protocol_us(request, reply);
      trips.push_back(trip);
    }
  }
  out.elapsed_s = now_s() - start;
  out.ops = timed;

  const svc::ServiceStatsSnapshot stats = daemon->service().stats_snapshot();
  const double hits = static_cast<double>(stats.cache.hits - before.hits);
  gate.check(hits == static_cast<double>(timed), "serve_hit lookups missed the cache");
  out.counts.add("service.cache_hit_ratio",
                 hits / std::max(1.0, static_cast<double>(timed)), "ratio");
  out.counts.add("service.requests", static_cast<double>(timed), "count");

  if (spec.traced) {
    add_transport_rows(trips, out.layers);
    const qs::obs::HistogramSummary lookup = service_histogram(stats, "service.cache_lookup");
    out.layers.add("service.cache_lookup_us",
                   lookup.count > 0 ? lookup.sum / static_cast<double>(lookup.count) * 1e6
                                    : 0.0,
                   "us");
    out.unaccounted_share = service_unaccounted(trips, stats);
  }
}

// ---------------------------------------------------------------------------
// study_batch8: error-threshold parameter studies.  Round k is eight random
// (Eq. 13) nu = 16 landscapes sharing one (nu, p), p stepping along a
// five-point grid; round k + 2 is submitted when round k completes, so the
// single worker always finds one complete round queued and every batch is
// exactly eight wide.  Round 0 (set-up) is popped while it is still being
// submitted and is exempt from the width check.
// ---------------------------------------------------------------------------

namespace {

constexpr unsigned kStudyNu = 16;
constexpr std::size_t kRoundWidth = 8;

struct Round {
  std::vector<svc::SolveRequest> requests;
  std::vector<std::future<svc::SolveReply>> futures;
  std::vector<std::uint64_t> submit_ns;
};

svc::SolveRequest study_request(Inputs& inputs, std::uint64_t round) {
  static constexpr double kGrid[5] = {0.004, 0.008, 0.012, 0.016, 0.020};
  svc::SolveRequest r;
  r.nu = kStudyNu;
  r.landscape = svc::LandscapeKind::random;
  r.param0 = 5.0;
  r.param1 = 1.0;
  r.seed = inputs.next_u64();
  r.p = kGrid[round % 5];
  r.tolerance = 1e-10;
  return r;
}

/// The batch hook's record: when a batch started and how many requests the
/// service had answered by then (which identifies the round it belongs to).
struct BatchStart {
  std::uint64_t ns;
  std::uint64_t completed;
};

class StudyService {
 public:
  StudyService() : service_(config()) { self_.store(&service_); }

  svc::SolverService& service() { return service_; }

  Round submit(Inputs& inputs, std::uint64_t round) {
    Round r;
    for (std::size_t i = 0; i < kRoundWidth; ++i) {
      r.requests.push_back(study_request(inputs, round));
      r.submit_ns.push_back(now_ns());
      r.futures.push_back(service_.submit(r.requests.back()));
    }
    return r;
  }

  std::vector<BatchStart> batches() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return batches_;
  }

 private:
  svc::ServiceConfig config() {
    svc::ServiceConfig c;
    c.workers = 1;
    c.max_batch = kRoundWidth;
    c.before_batch_hook = [this] {
      const svc::SolverService* s = self_.load();
      const BatchStart b{now_ns(), s != nullptr ? s->completed() : 0};
      const std::lock_guard<std::mutex> lock(mutex_);
      batches_.push_back(b);
    };
    return c;
  }

  std::mutex mutex_;
  std::vector<BatchStart> batches_;
  std::atomic<const svc::SolverService*> self_{nullptr};
  svc::SolverService service_;  // last: its worker, which runs the hook, stops first
};

}  // namespace

void study_batch8(const RunSpec& spec, Gate& gate, Outcome& out) {
  const PinnedThread pin(benchmark_cpu());
  std::unique_ptr<StudyService> study;
  std::unique_ptr<Inputs> inputs;
  std::deque<Round> inflight;
  std::uint64_t next_round = 0;

  for (int rep = 0; rep < spec.setup_reps; ++rep) {
    inflight.clear();
    study.reset();
    const double t0 = now_s();
    inputs = std::make_unique<Inputs>(spec.seed, 4);
    study = std::make_unique<StudyService>();
    inflight.push_back(study->submit(*inputs, 0));
    inflight.push_back(study->submit(*inputs, 1));
    next_round = 2;
    Round& warm = inflight.front();
    for (std::size_t i = 0; i < kRoundWidth; ++i) {
      const svc::SolveReply reply = warm.futures[i].get();
      OpCheck check;
      check_reply(warm.requests[i], reply, check);
      gate.record(check.violations());
    }
    inflight.pop_front();
    inflight.push_back(study->submit(*inputs, next_round++));
    out.setup_s.add(now_s() - t0);
  }
  if (spec.traced) qs::obs::reset_histograms();

  struct Done {
    std::uint64_t round;
    std::uint64_t done_ns;
    std::vector<std::uint64_t> submit_ns;
    std::vector<svc::SolveReply> replies;
    std::vector<svc::SolveRequest> requests;
  };
  std::vector<Done> done;
  const double start = now_s();
  std::uint64_t round = 1;
  double width_sum = 0.0;
  double products_sum = 0.0;
  while (!inflight.empty()) {
    Round r = std::move(inflight.front());
    inflight.pop_front();
    Done d;
    d.round = round++;
    for (std::size_t i = 0; i < kRoundWidth; ++i) {
      svc::SolveReply reply = r.futures[i].get();
      const std::uint64_t t = now_ns();
      out.latency_ms.add(static_cast<double>(t - r.submit_ns[i]) * 1e-6);
      OpCheck check;
      check_reply(r.requests[i], reply, check);
      check.require(reply.batch_width == kRoundWidth, "study batch width != 8");
      check.require(!reply.cache_hit, "study request served from cache");
      gate.record(check.violations());
      width_sum += reply.batch_width;
      products_sum += static_cast<double>(reply.iterations);
      d.replies.push_back(std::move(reply));
      d.done_ns = t;
    }
    d.submit_ns = std::move(r.submit_ns);
    d.requests = std::move(r.requests);
    if (d.round == 1 || spec.traced) done.push_back(std::move(d));
    if (now_s() - start < spec.seconds) {
      inflight.push_back(study->submit(*inputs, next_round++));
    }
  }
  out.elapsed_s = now_s() - start;
  out.ops = out.latency_ms.size();
  const double n = static_cast<double>(out.ops);
  const double rounds = n / static_cast<double>(kRoundWidth);
  const svc::ServiceStatsSnapshot stats = study->service().stats_snapshot();

  // Drift check: the first timed round re-solved directly through
  // analysis::sweep_landscape_family must match the service bit for bit.
  if (!done.empty()) {
    const Done& first = done.front();
    std::vector<qs::core::Landscape> family;
    for (const svc::SolveRequest& r : first.requests) {
      family.push_back(qs::core::Landscape::random(r.nu, r.param0, r.param1, r.seed));
    }
    qs::analysis::FamilyOptions options;
    options.tolerance = first.requests.front().tolerance;
    options.max_iterations = static_cast<unsigned>(first.requests.front().max_iterations);
    const qs::analysis::FamilyResult direct = qs::analysis::sweep_landscape_family(
        qs::core::MutationModel::uniform(kStudyNu, first.requests.front().p), family,
        options);
    OpCheck check;
    for (std::size_t i = 0; i < kRoundWidth; ++i) {
      svc::SolveReply expect = first.replies[i];
      expect.eigenvalue = direct.eigenvalues[i];
      expect.residual = direct.residuals[i];
      expect.iterations = direct.panel_products;
      expect.class_concentrations =
          qs::analysis::class_concentrations(kStudyNu, direct.eigenvectors[i]);
      check.require(same_answer(first.replies[i], expect),
                    "study reply differs from a direct family solve");
    }
    gate.record(check.violations());
  }

  out.counts.add("core.batch_width", width_sum / std::max(1.0, n), "count");
  out.counts.add("analysis.panel_products", products_sum / std::max(1.0, n), "count");
  out.counts.add("service.cache_hits", static_cast<double>(stats.cache.hits), "count");
  // The set-up round plus the timed rounds, all answered by now.
  out.counts.add("service.stores_per_request",
                 static_cast<double>(stats.cache.stores) / (n + kRoundWidth), "count");

  if (spec.traced) {
    const std::vector<BatchStart> batches = study->batches();
    Samples queue_wait, family_solve;
    double latency = 0.0, covered = 0.0;
    const qs::obs::HistogramSummary solve = service_histogram(stats, "service.solve");
    const qs::obs::HistogramSummary lookup = service_histogram(stats, "service.cache_lookup");
    const double solve_ms = solve.count > 0 ? solve.sum * 1e3 / solve.count : 0.0;
    const double lookup_ms = lookup.count > 0 ? lookup.sum * 1e3 / lookup.count : 0.0;
    for (const Done& d : done) {
      const auto b = std::find_if(batches.begin(), batches.end(), [&](const BatchStart& s) {
        return s.completed == d.round * kRoundWidth;
      });
      if (b == batches.end()) continue;
      family_solve.add(static_cast<double>(d.done_ns - b->ns) * 1e-6);
      for (std::size_t i = 0; i < kRoundWidth; ++i) {
        const double wait = static_cast<double>(b->ns - d.submit_ns[i]) * 1e-6;
        queue_wait.add(wait);
        latency += static_cast<double>(d.done_ns - d.submit_ns[i]) * 1e-6;
        covered += wait + solve_ms + lookup_ms;
      }
    }
    out.layers.add("core.queue_wait_ms", queue_wait.median(), "ms");
    out.layers.add("core.batch_width", width_sum / std::max(1.0, n), "count");
    out.layers.add("analysis.family_solve_ms", family_solve.median(), "ms");
    out.layers.add("analysis.panel_products", products_sum / std::max(1.0, n), "count");
    out.layers.add("analysis.rounds_per_s", rounds / out.elapsed_s, "1/s");
    out.unaccounted_share = latency > 0.0 ? 1.0 - covered / latency : 0.0;
  }
}

}  // namespace ledger
