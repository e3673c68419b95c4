// qs_client — command-line client for the qs_serve daemon.
//
//   qs_client --socket /tmp/qs.sock --nu 10 --p 0.01 --landscape single-peak
//   qs_client --socket /tmp/qs.sock --nu 8 --p 0.02 --deadline-ms 500
//             --retries 6 --base-delay-ms 50
//   qs_client --socket /tmp/qs.sock --ping
//
// Sends one solve request over the length-prefixed AF_UNIX protocol and
// prints the structured reply.  Transport failures and load-shed replies
// (REJECTED_OVERLOAD / SHUTTING_DOWN) are retried with capped exponential
// backoff and jitter; every other status is final.  The exit code mirrors
// the outcome: 0 for OK, 3 for a non-OK reply, 4 when every attempt failed
// on the wire, 2 for bad arguments.
#include <cstdio>
#include <iostream>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_client — solver service client\n\n"
      "connection:\n"
      "  --socket PATH       daemon socket (default /tmp/qs_serve.sock)\n"
      "  --io-timeout-ms T   per-chunk read/write timeout (default 5000)\n"
      "  --ping              health probe only (exit 0 iff the daemon replies)\n"
      "  --stats             fetch and print the daemon's live stats (the\n"
      "                      scrape-format text exposition; see qs_top for a\n"
      "                      pretty-printed view), then exit\n"
      "scenario:\n"
      "  --nu N              chain length (1..24; required)\n"
      "  --p RATE            per-position error rate (required)\n"
      "  --landscape KIND    single-peak (--peak/--rest, default 10/1),\n"
      "                      linear (--f0/--fnu), random (--c/--sigma --seed),\n"
      "                      or flat (--c)\n"
      "  --tolerance T       relative residual target (default 1e-10)\n"
      "  --max-iterations N  iteration budget (default 200000)\n"
      "  --deadline-ms D     per-request deadline; the daemon sheds or\n"
      "                      cancels past it (default 0 = none)\n"
      "retry:\n"
      "  --retries N         total attempts (default 4; 1 = no retry)\n"
      "  --base-delay-ms B   first backoff step (default 25)\n"
      "  --max-delay-ms M    backoff cap (default 1000)\n"
      "  --jitter J          delay drawn from [d*(1-J), d] (default 0.5)\n"
      "  --retry-seed S      jitter stream seed (default 1)\n"
      "other:\n"
      "  --trace-json FILE   write a Chrome trace-event JSON of this client's\n"
      "                      side of the request (the request's trace id is\n"
      "                      printed, and the daemon's --trace-json spans\n"
      "                      carry the same id)\n"
      "  --quiet             print only the eigenvalue (scripting)\n"
      "  --help              this text\n";
}

struct CliError {
  std::string message;
};

/// Same span-gate warning as the other tools: a --trace-json request
/// against a span-less binary gets a loud warning, not an empty trace.
void setup_observability(const qs::ArgParser& args) {
  if (!args.has("trace-json")) return;
  if (qs::obs::compiled_in()) {
    qs::obs::set_enabled(true);
  } else {
    std::cerr << "warning: this binary was built without QS_ENABLE_TRACING; "
                 "the trace will contain no span events (configure with "
                 "--preset trace, or -DQS_ENABLE_TRACING=ON)\n";
  }
}

void export_observability(const qs::ArgParser& args) {
  if (!args.has("trace-json")) return;
  const std::string path = args.get("trace-json", "");
  if (qs::obs::write_chrome_trace_file(path)) {
    std::cout << "trace written to " << path << " (load in ui.perfetto.dev)\n";
  } else {
    std::cerr << "warning: could not write trace to " << path << "\n";
  }
}

qs::service::SolveRequest parse_request(const qs::ArgParser& args) {
  qs::service::SolveRequest request;
  request.nu = static_cast<std::uint32_t>(args.get_long("nu", 0, 1, 64));
  if (request.nu == 0) throw CliError{"--nu is required (try --help)"};
  request.p = args.get_double("p", 0.0, 1e-12, 0.5);
  if (request.p == 0.0) throw CliError{"--p is required (try --help)"};

  const std::string kind = args.get("landscape", "single-peak");
  if (kind == "single-peak") {
    request.landscape = qs::service::LandscapeKind::single_peak;
    request.param0 = args.get_double("peak", 10.0, 1e-12, 1e12);
    request.param1 = args.get_double("rest", 1.0, 1e-12, 1e12);
  } else if (kind == "linear") {
    request.landscape = qs::service::LandscapeKind::linear;
    request.param0 = args.get_double("f0", 2.0, 1e-12, 1e12);
    request.param1 = args.get_double("fnu", 1.0, 1e-12, 1e12);
  } else if (kind == "random") {
    request.landscape = qs::service::LandscapeKind::random;
    request.param0 = args.get_double("c", 5.0, 1e-12, 1e12);
    request.param1 = args.get_double("sigma", 1.0, 1e-12, 1e12);
  } else if (kind == "flat") {
    request.landscape = qs::service::LandscapeKind::flat;
    request.param0 = args.get_double("c", 1.0, 1e-12, 1e12);
    request.param1 = 0.0;
  } else {
    throw CliError{"unknown landscape kind '" + kind + "'"};
  }
  request.seed =
      static_cast<std::uint64_t>(args.get_long("seed", 1, 0, 1L << 62));
  request.tolerance = args.get_double("tolerance", 1e-10, 1e-16, 1e-2);
  request.max_iterations = static_cast<std::uint64_t>(
      args.get_long("max-iterations", 200000, 1, 1000000000));
  request.deadline_ms = static_cast<std::uint64_t>(
      args.get_long("deadline-ms", 0, 0, 86400000));

  const std::string problem = qs::service::validate(request);
  if (!problem.empty()) throw CliError{problem};
  return request;
}

qs::service::RetryPolicy parse_policy(const qs::ArgParser& args) {
  qs::service::RetryPolicy policy;
  policy.max_attempts =
      static_cast<unsigned>(args.get_long("retries", 4, 1, 100));
  policy.base_delay_ms =
      static_cast<std::uint64_t>(args.get_long("base-delay-ms", 25, 1, 60000));
  policy.max_delay_ms = static_cast<std::uint64_t>(
      args.get_long("max-delay-ms", 1000, 1, 600000));
  policy.jitter = args.get_double("jitter", 0.5, 0.0, 1.0);
  policy.seed =
      static_cast<std::uint64_t>(args.get_long("retry-seed", 1, 1, 1L << 62));
  return policy;
}

int run(const qs::ArgParser& args) {
  if (!args.only_known({"base-delay-ms", "c", "deadline-ms", "f0", "fnu",
                         "help", "io-timeout-ms", "jitter", "landscape",
                         "max-delay-ms", "max-iterations", "nu", "p", "peak",
                         "ping", "quiet", "rest", "retries", "retry-seed",
                         "seed", "sigma", "socket", "stats", "tolerance",
                         "trace-json"})) {
    return 2;
  }
  if (args.has("help")) {
    print_usage();
    return 0;
  }
  const std::filesystem::path socket = args.get("socket", "/tmp/qs_serve.sock");
  const unsigned io_timeout_ms =
      static_cast<unsigned>(args.get_long("io-timeout-ms", 5000, 10, 3600000));
  qs::service::Client client(socket, io_timeout_ms);

  if (args.has("ping")) {
    const bool up = client.ping();
    std::cout << (up ? "daemon is up\n" : "no reply\n");
    return up ? 0 : 4;
  }
  if (args.has("stats")) {
    try {
      std::cout << client.stats();
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "error: stats fetch failed: " << e.what() << "\n";
      return 4;
    }
  }

  setup_observability(args);
  qs::service::SolveRequest request = parse_request(args);
  // Mint here (not in Client::solve) so every retry reuses one trace id and
  // we can print it for matching against the daemon's trace.
  request.trace_id = qs::obs::mint_trace_id();
  const qs::service::ClientOutcome outcome =
      client.solve_with_retry(request, parse_policy(args));
  const qs::service::SolveReply& reply = outcome.reply;

  if (!outcome.last_error.empty() &&
      reply.status == qs::service::StatusCode::internal_error) {
    std::cerr << "error: no reply after " << outcome.attempts
              << " attempt(s) (" << outcome.backoff_ms
              << " ms backoff): " << outcome.last_error << "\n";
    return 4;
  }
  if (reply.status != qs::service::StatusCode::ok) {
    std::cerr << "error: " << to_string(reply.status)
              << (reply.message.empty() ? "" : ": " + reply.message)
              << " (after " << outcome.attempts << " attempt(s))\n";
    return 3;
  }

  if (args.has("quiet")) {
    std::cout.precision(15);
    std::cout << reply.eigenvalue << "\n";
    export_observability(args);
    return 0;
  }
  std::cout.precision(12);
  if (args.has("trace-json")) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llx",
                  static_cast<unsigned long long>(request.trace_id));
    std::cout << "trace id " << hex << "\n";
  }
  std::cout << "lambda_0 = " << reply.eigenvalue
            << "   residual = " << reply.residual
            << "   iterations = " << reply.iterations
            << (reply.cache_hit ? "   [cache hit]" : "") << "\n"
            << "service: queue wait " << reply.queue_wait_ms
            << " ms, batch width " << reply.batch_width;
  if (request.deadline_ms > 0) {
    std::cout << ", deadline slack " << reply.deadline_slack_ms << " ms";
  }
  if (outcome.attempts > 1) {
    std::cout << ", " << outcome.attempts << " attempt(s), "
              << outcome.backoff_ms << " ms backoff";
  }
  std::cout << "\n\nclass concentrations:\n";
  for (std::size_t k = 0; k < reply.class_concentrations.size(); ++k) {
    std::cout << "  [Gamma_" << k << "] = " << reply.class_concentrations[k]
              << "\n";
  }
  export_observability(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(qs::ArgParser(argc, argv));
  } catch (const CliError& e) {
    std::cerr << "error: " << e.message << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
