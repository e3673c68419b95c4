// qs_serve — the fault-tolerant solver daemon.
//
//   qs_serve --socket /tmp/qs.sock --workers 2 --cache-dir /var/cache/qs
//   qs_serve --selfcheck          # in-process round trip, exits 0/1
//
// Listens on an AF_UNIX socket for length-prefixed solve requests (see
// src/service/protocol.hpp), runs them through the admission-controlled
// SolverService — bounded queue, per-request deadlines, batches coalesced
// by (nu, p) through the panel family solver, crash-safe scenario cache —
// and replies with structured status codes.  SIGINT/SIGTERM drain
// gracefully: the listener closes, queued requests are answered
// SHUTTING_DOWN, in-flight batches cancel at the next iteration boundary,
// and the final service statistics are printed (and exported with
// --metrics).
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <iostream>
#include <thread>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_serve — solver service daemon (AF_UNIX)\n\n"
      "  --socket PATH       listening socket path (default /tmp/qs_serve.sock)\n"
      "  --workers N         worker threads popping batches (default 1;\n"
      "                      one worker keeps batches maximally wide)\n"
      "  --queue-capacity N  admission bound; beyond it requests shed with\n"
      "                      REJECTED_OVERLOAD (default 64)\n"
      "  --max-batch M       panel width cap per coalesced batch (default 8)\n"
      "  --cache-entries N   in-memory LRU entries (default 256)\n"
      "  --cache-dir DIR     durable scenario cache directory (atomic +\n"
      "                      checksummed entries; corrupt files are\n"
      "                      quarantined as .bad and recomputed); omit for a\n"
      "                      memory-only cache\n"
      "  --io-timeout-ms T   per-chunk socket read/write timeout (default 5000)\n"
      "  --metrics FILE      write the service metrics snapshot on shutdown\n"
      "  --trace-json FILE   write a Chrome trace-event JSON on shutdown: every\n"
      "                      request span (started at the client's send time),\n"
      "                      queue/batch span, and solver iteration span,\n"
      "                      sharing the client's trace id\n"
      "  --selfcheck         start on a private socket, run a client round\n"
      "                      trip (solve, cached re-solve, ping), stop, and\n"
      "                      exit 0 on success — a smoke test of the full\n"
      "                      daemon path without an external client\n"
      "  --help              this text\n";
}

struct CliError {
  std::string message;
};

/// Same --trace-json/--metrics idiom as qs_solve: spans only exist in
/// QS_ENABLE_TRACING builds, so a --trace-json request against a span-less
/// daemon gets a loud warning instead of a silently empty trace.
void setup_observability(const qs::ArgParser& args) {
  if (!args.has("trace-json") && !args.has("metrics")) return;
  if (qs::obs::compiled_in()) {
    qs::obs::set_enabled(true);
  } else if (args.has("trace-json")) {
    std::cerr << "warning: this binary was built without QS_ENABLE_TRACING; "
                 "the trace will contain no span events (configure with "
                 "--preset trace, or -DQS_ENABLE_TRACING=ON)\n";
  }
}

void export_observability(const qs::ArgParser& args) {
  if (args.has("trace-json")) {
    const std::string path = args.get("trace-json", "");
    if (qs::obs::write_chrome_trace_file(path)) {
      std::cout << "trace written to " << path
                << " (load in ui.perfetto.dev)\n";
    } else {
      std::cerr << "warning: could not write trace to " << path << "\n";
    }
  }
  if (args.has("metrics") &&
      !qs::obs::write_metrics_file(args.get("metrics", ""))) {
    std::cerr << "warning: could not write metrics to "
              << args.get("metrics", "") << "\n";
  }
}

qs::service::SocketServerConfig parse_config(const qs::ArgParser& args) {
  qs::service::SocketServerConfig config;
  config.socket_path = args.get("socket", "/tmp/qs_serve.sock");
  config.io_timeout_ms =
      static_cast<unsigned>(args.get_long("io-timeout-ms", 5000, 10, 3600000));
  config.service.workers =
      static_cast<std::size_t>(args.get_long("workers", 1, 1, 64));
  config.service.queue_capacity =
      static_cast<std::size_t>(args.get_long("queue-capacity", 64, 1, 1000000));
  config.service.max_batch =
      static_cast<std::size_t>(args.get_long("max-batch", 8, 1, 64));
  config.service.cache_entries =
      static_cast<std::size_t>(args.get_long("cache-entries", 256, 1, 10000000));
  if (args.has("cache-dir")) {
    config.service.cache_dir = args.get("cache-dir", "");
  }
  return config;
}

void print_stats(const qs::service::SocketServer& server,
                 qs::service::SolverService& service) {
  const auto queue = service.queue_stats();
  const auto cache = service.cache_stats();
  std::cout << "served " << service.completed() << " request(s) over "
            << server.connections() << " connection(s)\n"
            << "  admission: " << queue.accepted << " accepted, "
            << queue.rejected_overload << " shed (overload), "
            << queue.rejected_closed << " refused (drain), " << queue.expired
            << " expired in queue\n"
            << "  batches:   " << queue.batches << " (" << queue.popped
            << " request(s) popped)\n"
            << "  cache:     " << cache.hits << " hit(s), " << cache.misses
            << " miss(es), " << cache.quarantined << " quarantined, "
            << cache.collisions << " key collision(s), "
            << cache.store_failures << " store failure(s)\n";
}

int serve(const qs::ArgParser& args) {
  setup_observability(args);
  qs::service::SocketServer server(parse_config(args));
  server.start();
  std::cout << "qs_serve listening on " << server.socket_path().string()
            << " (SIGINT/SIGTERM to drain)\n";

  // The handler only sets a flag; this thread owns the actual drain so the
  // daemon never dies mid-batch or mid-cache-write.
  qs::install_shutdown_handlers();
  while (!qs::shutdown_requested() && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  if (qs::shutdown_requested()) {
    std::cout << "\nsignal "
              << (qs::shutdown_signal() == SIGTERM ? "SIGTERM" : "SIGINT")
              << " received — draining\n";
  }
  server.stop();
  print_stats(server, server.service());
  export_observability(args);
  return 0;
}

int selfcheck(const qs::ArgParser& args) {
  setup_observability(args);
  // A private socket keyed by pid: the check must not collide with (or
  // disturb) a real daemon on the default path.
  qs::service::SocketServerConfig config = parse_config(args);
  if (!args.has("socket")) {
    config.socket_path = std::filesystem::temp_directory_path() /
                         ("qs_serve_selfcheck_" + std::to_string(::getpid()) +
                          ".sock");
  }
  qs::service::SocketServer server(config);
  server.start();

  qs::service::SolveRequest request;
  request.nu = 6;
  request.landscape = qs::service::LandscapeKind::single_peak;
  request.param0 = 8.0;
  request.param1 = 1.0;
  request.p = 0.02;
  request.tolerance = 1e-10;

  qs::service::Client client(server.socket_path());
  bool ok = true;
  if (!client.ping()) {
    std::cerr << "selfcheck: ping failed\n";
    ok = false;
  }
  const auto first = client.solve(request);
  if (first.status != qs::service::StatusCode::ok) {
    std::cerr << "selfcheck: solve failed: " << to_string(first.status) << " "
              << first.message << "\n";
    ok = false;
  }
  const auto second = client.solve(request);
  if (second.status != qs::service::StatusCode::ok || !second.cache_hit) {
    std::cerr << "selfcheck: cached re-solve failed (status "
              << to_string(second.status) << ", cache_hit "
              << second.cache_hit << ")\n";
    ok = false;
  }
  if (ok && second.eigenvalue != first.eigenvalue) {
    std::cerr << "selfcheck: cached eigenvalue differs from fresh solve\n";
    ok = false;
  }
  // Live introspection: the STATS op must reflect the two solves above
  // without entering the solver path.  With a warm --cache-dir even the
  // first solve can be a disk hit, so the solve histogram is only owed a
  // sample when something actually solved; cache lookups always happen.
  const std::string stats = client.stats();
  const auto accepted =
      qs::service::stats_value(stats, "qs_queue_total{event=\"accepted\"}");
  const auto lookup_count = qs::service::stats_value(
      stats, "qs_latency_seconds{op=\"service.cache_lookup\",stat=\"count\"}");
  const auto solve_count = qs::service::stats_value(
      stats, "qs_latency_seconds{op=\"service.solve\",stat=\"count\"}");
  const bool solved_fresh = ok && !first.cache_hit;
  if (!accepted || *accepted < 1.0 || !lookup_count || *lookup_count < 1.0 ||
      (solved_fresh && (!solve_count || *solve_count < 1.0))) {
    std::cerr << "selfcheck: STATS reply missing queue/latency data:\n"
              << stats;
    ok = false;
  }
  server.stop();
  export_observability(args);
  if (ok) {
    std::cout << "selfcheck ok: lambda_0 = " << first.eigenvalue << " in "
              << first.iterations << " iteration(s); cached reply bit-identical\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const qs::ArgParser args(argc, argv);
    if (!args.only_known({"cache-dir", "cache-entries", "help",
                           "io-timeout-ms", "max-batch", "metrics",
                           "queue-capacity", "selfcheck", "socket",
                           "trace-json", "workers"})) {
      return 2;
    }
    if (args.has("help")) {
      print_usage();
      return 0;
    }
    return args.has("selfcheck") ? selfcheck(args) : serve(args);
  } catch (const CliError& e) {
    std::cerr << "error: " << e.message << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
