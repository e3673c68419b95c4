// qs_top — one-shot pretty-printer for a live qs_serve daemon.
//
//   qs_top --socket /tmp/qs_serve.sock
//   qs_top --file stats.txt          # render a saved scrape instead
//
// Fetches the daemon's STATS exposition (the same text qs_client --stats
// prints verbatim) and renders it as a human-oriented dashboard: uptime and
// throughput, queue admission counters, cache effectiveness, the request
// mix by landscape kind, and one latency row per histogram with
// p50/p90/p99/max.  One shot, no curses: run it under `watch` for a live
// view.  Exit 0 on success, 4 when the daemon is unreachable, 2 for bad
// arguments.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "quasispecies.hpp"
#include "support/args.hpp"

namespace {

void print_usage() {
  std::cout <<
      "qs_top — one-shot dashboard for the qs_serve daemon\n\n"
      "  --socket PATH       daemon socket (default /tmp/qs_serve.sock)\n"
      "  --io-timeout-ms T   per-chunk read/write timeout (default 5000)\n"
      "  --file FILE         render a saved stats exposition instead of\n"
      "                      querying a daemon (scraping pipelines, tests)\n"
      "  --raw               print the exposition verbatim after the dashboard\n"
      "  --help              this text\n";
}

struct CliError {
  std::string message;
};

/// One parsed histogram row: family is qs_latency_seconds or qs_ratio.
struct HistRow {
  std::string family;
  std::string op;
  double count = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Collects every {op=...} histogram in the exposition, keyed in first-seen
/// order.  The exposition emits all six stats per op consecutively, but the
/// parser tolerates any order.
std::vector<HistRow> parse_hist_rows(const std::string& text) {
  std::vector<HistRow> rows;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t brace = line.find("{op=\"");
    if (brace == std::string::npos) continue;
    const std::string family = line.substr(0, brace);
    const std::size_t op_begin = brace + 5;
    const std::size_t op_end = line.find('"', op_begin);
    const std::size_t stat_begin = line.find(",stat=\"", op_end);
    if (op_end == std::string::npos || stat_begin == std::string::npos) continue;
    const std::size_t stat_val = stat_begin + 7;
    const std::size_t stat_end = line.find('"', stat_val);
    const std::size_t space = line.find(' ', stat_end);
    if (stat_end == std::string::npos || space == std::string::npos) continue;
    const std::string op = line.substr(op_begin, op_end - op_begin);
    const std::string stat = line.substr(stat_val, stat_end - stat_val);
    const double value = std::strtod(line.c_str() + space + 1, nullptr);

    HistRow* row = nullptr;
    for (HistRow& r : rows) {
      if (r.op == op && r.family == family) row = &r;
    }
    if (row == nullptr) {
      rows.push_back(HistRow{family, op, 0, 0, 0, 0, 0});
      row = &rows.back();
    }
    if (stat == "count") row->count = value;
    else if (stat == "p50") row->p50 = value;
    else if (stat == "p90") row->p90 = value;
    else if (stat == "p99") row->p99 = value;
    else if (stat == "max") row->max = value;
  }
  return rows;
}

double metric_or_zero(const std::string& text, const std::string& metric) {
  return qs::service::stats_value(text, metric).value_or(0.0);
}

std::string format_seconds(double v) {
  char buf[32];
  if (v >= 1.0) std::snprintf(buf, sizeof buf, "%8.3f s", v);
  else if (v >= 1e-3) std::snprintf(buf, sizeof buf, "%7.3f ms", v * 1e3);
  else std::snprintf(buf, sizeof buf, "%7.1f us", v * 1e6);
  return buf;
}

void render(const std::string& text, const std::string& source) {
  const double uptime = metric_or_zero(text, "qs_uptime_seconds");
  const auto count = [&](const std::string& m) {
    return static_cast<std::uint64_t>(metric_or_zero(text, m));
  };
  std::printf("qs_serve %s — up %.1f s, %llu connection(s), %llu completed\n\n",
              source.c_str(), uptime,
              static_cast<unsigned long long>(count("qs_connections_total")),
              static_cast<unsigned long long>(count("qs_completed_total")));

  std::printf(
      "queue   depth %llu | accepted %llu | shed %llu | refused %llu | "
      "expired %llu | %llu batch(es) from %llu pop(s)\n",
      static_cast<unsigned long long>(count("qs_queue_depth")),
      static_cast<unsigned long long>(count("qs_queue_total{event=\"accepted\"}")),
      static_cast<unsigned long long>(
          count("qs_queue_total{event=\"rejected_overload\"}")),
      static_cast<unsigned long long>(
          count("qs_queue_total{event=\"rejected_closed\"}")),
      static_cast<unsigned long long>(count("qs_queue_total{event=\"expired\"}")),
      static_cast<unsigned long long>(count("qs_queue_total{event=\"batches\"}")),
      static_cast<unsigned long long>(count("qs_queue_total{event=\"popped\"}")));

  const double hits = metric_or_zero(text, "qs_cache_total{event=\"hits\"}");
  const double misses = metric_or_zero(text, "qs_cache_total{event=\"misses\"}");
  const double lookups = hits + misses;
  std::printf(
      "cache   hits %llu | misses %llu | hit rate %.1f%% | stores %llu | "
      "quarantined %llu | collisions %llu\n",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses),
      lookups > 0.0 ? 100.0 * hits / lookups : 0.0,
      static_cast<unsigned long long>(count("qs_cache_total{event=\"stores\"}")),
      static_cast<unsigned long long>(
          count("qs_cache_total{event=\"quarantined\"}")),
      static_cast<unsigned long long>(
          count("qs_cache_total{event=\"collisions\"}")));

  std::printf(
      "mix     single-peak %llu | linear %llu | random %llu | flat %llu\n",
      static_cast<unsigned long long>(
          count("qs_requests_total{landscape=\"single-peak\"}")),
      static_cast<unsigned long long>(
          count("qs_requests_total{landscape=\"linear\"}")),
      static_cast<unsigned long long>(
          count("qs_requests_total{landscape=\"random\"}")),
      static_cast<unsigned long long>(
          count("qs_requests_total{landscape=\"flat\"}")));

  const std::vector<HistRow> rows = parse_hist_rows(text);
  bool latency_header = false;
  for (const HistRow& r : rows) {
    if (r.family != "qs_latency_seconds") continue;
    if (!latency_header) {
      std::printf("\n%-24s %10s %10s %10s %10s %10s\n", "latency", "count",
                  "p50", "p90", "p99", "max");
      latency_header = true;
    }
    std::printf("  %-22s %10llu %10s %10s %10s %10s\n", r.op.c_str(),
                static_cast<unsigned long long>(r.count),
                format_seconds(r.p50).c_str(), format_seconds(r.p90).c_str(),
                format_seconds(r.p99).c_str(), format_seconds(r.max).c_str());
  }
  bool ratio_header = false;
  for (const HistRow& r : rows) {
    if (r.family != "qs_ratio") continue;
    if (!ratio_header) {
      std::printf("\n%-24s %10s %10s %10s %10s %10s\n", "ratios", "count",
                  "p50", "p90", "p99", "max");
      ratio_header = true;
    }
    std::printf("  %-22s %10llu %10.4f %10.4f %10.4f %10.4f\n", r.op.c_str(),
                static_cast<unsigned long long>(r.count), r.p50, r.p90, r.p99,
                r.max);
  }
}

int run(const qs::ArgParser& args) {
  if (!args.only_known({"file", "help", "io-timeout-ms", "raw", "socket"})) {
    return 2;
  }
  if (args.has("help")) {
    print_usage();
    return 0;
  }
  std::string text;
  std::string source;
  if (args.has("file")) {
    const std::string path = args.get("file", "");
    std::ifstream in(path);
    if (!in) throw CliError{"cannot open stats file '" + path + "'"};
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
    source = "(" + path + ")";
  } else {
    const std::filesystem::path socket =
        args.get("socket", "/tmp/qs_serve.sock");
    const unsigned io_timeout_ms = static_cast<unsigned>(
        args.get_long("io-timeout-ms", 5000, 10, 3600000));
    qs::service::Client client(socket, io_timeout_ms);
    try {
      text = client.stats();
    } catch (const std::exception& e) {
      std::cerr << "error: cannot fetch stats from " << socket.string() << ": "
                << e.what() << "\n";
      return 4;
    }
    source = "on " + socket.string();
  }
  render(text, source);
  if (args.has("raw")) {
    std::printf("\n-- raw exposition --\n%s", text.c_str());
  }
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
