#include "ledger.hpp"


#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "transforms/blocked_butterfly.hpp"

namespace ledger {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

namespace {
constexpr double kLatencyFloorMs = 1e-4;
constexpr double kLatencyBinRatio = 1.0005;
const double kLogRatio = std::log(kLatencyBinRatio);
const std::size_t kLatencyBins =
    static_cast<std::size_t>(std::ceil(std::log(1e5 / kLatencyFloorMs) / kLogRatio));
}  // namespace

LatencyLog::LatencyLog() : bins_(kLatencyBins, 0) {}

void LatencyLog::add(double ms) {
  const double pos = std::log(std::max(ms, kLatencyFloorMs) / kLatencyFloorMs) / kLogRatio;
  ++bins_[std::min(static_cast<std::size_t>(pos), kLatencyBins - 1)];
  ++count_;
}

void LatencyLog::clear() {
  std::fill(bins_.begin(), bins_.end(), 0u);
  count_ = 0;
}

double LatencyLog::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (bins_[b] == 0) continue;
    if (rank < static_cast<double>(below + bins_[b])) {
      const double frac = (rank - static_cast<double>(below) + 0.5) / bins_[b];
      return kLatencyFloorMs * std::exp((static_cast<double>(b) + frac) * kLogRatio);
    }
    below += bins_[b];
  }
  return kLatencyFloorMs * std::exp(static_cast<double>(kLatencyBins) * kLogRatio);
}

void Gate::record(const std::vector<std::string>& violations) {
  ++attempted_;
  if (violations.empty()) return;
  ++failed_;
  if (failed_ <= 5) {
    for (const std::string& v : violations) {
      std::fprintf(stderr, "e2e_ledger: check failed: %s\n", v.c_str());
    }
  }
}

void Gate::check(bool ok, const std::string& what) {
  OpCheck c;
  c.require(ok, what);
  record(c.violations());
}

double sum_tolerance(unsigned nu) {
  return std::max(1e-12, std::ldexp(1.0, static_cast<int>(nu) - 53));
}

void check_reply(const qs::service::SolveRequest& request,
                 const qs::service::SolveReply& reply, OpCheck& check) {
  using qs::service::StatusCode;
  check.require(reply.status == StatusCode::ok,
                std::string("status ") + qs::service::to_string(reply.status) +
                    " (" + reply.message + ")");
  if (reply.status != StatusCode::ok) return;
  check.require(reply.residual <= request.tolerance,
                "residual " + std::to_string(reply.residual) + " above tolerance");
  check.require(reply.class_concentrations.size() == request.nu + 1,
                "class concentrations of wrong length");
  double total = 0.0;
  for (double g : reply.class_concentrations) total += g;
  const double tol = sum_tolerance(request.nu);
  check.require(std::abs(total - 1.0) <= tol,
                "class concentrations sum to 1 + " + std::to_string(total - 1.0));
  if (request.landscape == qs::service::LandscapeKind::flat) {
    check.require(std::abs(reply.eigenvalue - request.param0) <= tol * request.param0,
                  "flat landscape eigenvalue differs from c");
  }
}

bool same_answer(const qs::service::SolveReply& a, const qs::service::SolveReply& b) {
  const auto bits = [](double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  if (bits(a.eigenvalue) != bits(b.eigenvalue) || bits(a.residual) != bits(b.residual) ||
      a.iterations != b.iterations ||
      a.class_concentrations.size() != b.class_concentrations.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.class_concentrations.size(); ++i) {
    if (bits(a.class_concentrations[i]) != bits(b.class_concentrations[i])) return false;
  }
  return true;
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  rows_.push_back({name, value, unit});
}

void Report::append_to(Report& other) const {
  other.rows_.insert(other.rows_.end(), rows_.begin(), rows_.end());
}

void Report::print_table() const {
  for (const Row& r : rows_) {
    std::printf("  %-40s %16.6g %s\n", r.name.c_str(), r.value, r.unit.c_str());
  }
}

std::string Report::json_metrics() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
    out << (i ? ", " : "") << "\"" << rows_[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << rows_[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

PinnedThread::PinnedThread(int cpu) {
  CPU_ZERO(&saved_);
  if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinnedThread::~PinnedThread() {
  if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
}

int benchmark_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  return last;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: Linux carries ru_maxrss across execve, so a
  // launcher's own footprint (14 MiB of Python) would floor the reading.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

double copy_gbps(std::size_t bytes, int reps) {
  const std::size_t n = std::max<std::size_t>(1, bytes / sizeof(double));
  std::vector<double> src(n, 1.0);
  std::vector<double> dst(n, 0.0);
  std::memcpy(dst.data(), src.data(), n * sizeof(double));
  Samples gbps;
  for (int r = 0; r < reps; ++r) {
    src[static_cast<std::size_t>(r) % n] += 1.0;  // a fresh source every pass
    const double t0 = now_s();
    std::memcpy(dst.data(), src.data(), n * sizeof(double));
    asm volatile("" : : "r"(dst.data()) : "memory");
    const double t1 = now_s();
    gbps.add(2.0 * static_cast<double>(n * sizeof(double)) / (t1 - t0) * 1e-9);
  }
  return gbps.median();
}

std::size_t fmmp_bands(unsigned nu) {
  return qs::transforms::blocked_band_boundaries(nu, qs::transforms::BlockedPlan{})
             .size() -
         1;
}

double fmmp_bytes(unsigned nu, std::size_t m) {
  const double n = std::ldexp(1.0, static_cast<int>(nu));
  return static_cast<double>(fmmp_bands(nu)) * 2.0 * 8.0 * n * static_cast<double>(m);
}

Inputs::Inputs(std::uint64_t seed, std::uint64_t salt)
    : rng_(seed * 0x9E3779B97F4A7C15ull + salt) {}

double Inputs::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng_);
}

std::size_t Inputs::index(std::size_t n) {
  return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng_);
}

qs::service::SolveRequest service_scenario(Inputs& inputs, std::uint64_t j) {
  using qs::service::LandscapeKind;
  static constexpr unsigned kNus[3] = {12, 14, 16};
  // A nine-slot kind cycle against the three-slot nu cycle (27 misses):
  // random landscapes (the paper's Eq. 13) take four slots, single-peak and
  // flat two each, linear one.  Linear landscapes need 300-500 panel
  // products and their latency spreads widely; with one slot in nine they
  // sit above the p90, so the miss median lands inside the nu = 14 random
  // group and the p90 inside the nu = 16 random group, both narrow.
  static constexpr LandscapeKind kKinds[9] = {
      LandscapeKind::single_peak, LandscapeKind::random, LandscapeKind::flat,
      LandscapeKind::random,      LandscapeKind::single_peak, LandscapeKind::random,
      LandscapeKind::flat,        LandscapeKind::random, LandscapeKind::linear};
  qs::service::SolveRequest r;
  r.nu = kNus[j % 3];
  r.landscape = kKinds[(j / 3) % 9];
  // Narrow parameter ranges: every miss is a fresh scenario, but each
  // (nu, kind) group keeps one panel-product count (residuals are checked
  // every 8 products, so a wider range splits a group between two counts
  // and the seed would decide the split).
  r.p = inputs.uniform(0.0045, 0.0055);
  r.tolerance = 1e-10;
  switch (r.landscape) {
    case LandscapeKind::single_peak:
      r.param0 = inputs.uniform(4.9, 5.1);
      r.param1 = 1.0;
      break;
    case LandscapeKind::linear:
      r.param0 = inputs.uniform(2.9, 3.1);
      r.param1 = inputs.uniform(0.95, 1.05);
      break;
    case LandscapeKind::random:
      r.param0 = inputs.uniform(4.9, 5.1);
      r.param1 = inputs.uniform(0.95, 1.05);
      r.seed = inputs.next_u64();
      break;
    case LandscapeKind::flat:
      r.param0 = inputs.uniform(1.0, 5.0);
      break;
  }
  return r;
}

}  // namespace ledger
