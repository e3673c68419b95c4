#include "service/protocol.hpp"

#include <bit>
#include <cstring>
#include <type_traits>

#include "support/bits.hpp"

namespace qs::service {
namespace {

static_assert(std::endian::native == std::endian::little,
              "service protocol assumes a little-endian host");

/// Append-only little-endian encoder.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = out_.size();
    out_.resize(at + sizeof(T));
    std::memcpy(out_.data() + at, &value, sizeof(T));
  }

  void put_doubles(const std::vector<double>& values) {
    put<std::uint64_t>(values.size());
    const std::size_t at = out_.size();
    out_.resize(at + values.size() * sizeof(double));
    if (!values.empty()) {
      std::memcpy(out_.data() + at, values.data(), values.size() * sizeof(double));
    }
  }

  void put_string(const std::string& value) {
    put<std::uint32_t>(static_cast<std::uint32_t>(value.size()));
    out_.insert(out_.end(), value.begin(), value.end());
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian decoder: every read validates the remaining
/// byte count first, and length-prefixed fields validate the declared
/// length against what is actually present before allocating (the same
/// never-trust-a-length rule as io/binary_io and the frame reader).
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& in) : in_(in) {}

  template <typename T>
  T get(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T), field);
    T value;
    std::memcpy(&value, in_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return value;
  }

  std::vector<double> get_doubles(const char* field) {
    const auto count = get<std::uint64_t>(field);
    if (count > remaining() / sizeof(double)) {
      throw ProtocolError(std::string("decode: ") + field + " declares " +
                          std::to_string(count) + " doubles but only " +
                          std::to_string(remaining()) + " bytes remain");
    }
    std::vector<double> values(static_cast<std::size_t>(count));
    if (count != 0) {
      std::memcpy(values.data(), in_.data() + at_,
                  static_cast<std::size_t>(count) * sizeof(double));
      at_ += static_cast<std::size_t>(count) * sizeof(double);
    }
    return values;
  }

  std::string get_string(const char* field) {
    const auto size = get<std::uint32_t>(field);
    need(size, field);
    std::string value(reinterpret_cast<const char*>(in_.data() + at_), size);
    at_ += size;
    return value;
  }

  bool at_end() const { return at_ == in_.size(); }

  void expect_end(const char* what) const {
    if (at_ != in_.size()) {
      throw ProtocolError(std::string("decode: ") + what + " carries " +
                          std::to_string(in_.size() - at_) + " trailing bytes");
    }
  }

 private:
  std::size_t remaining() const { return in_.size() - at_; }

  void need(std::size_t bytes, const char* field) const {
    if (bytes > remaining()) {
      throw ProtocolError(std::string("decode: payload truncated at ") + field);
    }
  }

  const std::vector<std::uint8_t>& in_;
  std::size_t at_ = 0;
};

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void hash_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
}

template <typename T>
void hash_value(std::uint64_t& hash, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  hash_bytes(hash, &value, sizeof(T));
}

}  // namespace

const char* to_string(LandscapeKind kind) {
  switch (kind) {
    case LandscapeKind::single_peak: return "single-peak";
    case LandscapeKind::linear: return "linear";
    case LandscapeKind::random: return "random";
    case LandscapeKind::flat: return "flat";
  }
  return "unknown";
}

const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::ok: return "ok";
    case StatusCode::rejected_overload: return "rejected-overload";
    case StatusCode::deadline_exceeded: return "deadline-exceeded";
    case StatusCode::cancelled: return "cancelled";
    case StatusCode::bad_request: return "bad-request";
    case StatusCode::solver_failure: return "solver-failure";
    case StatusCode::shutting_down: return "shutting-down";
    case StatusCode::internal_error: return "internal-error";
  }
  return "unknown";
}

bool retryable(StatusCode code) {
  // Overload and drain mean "the daemon never started this work" — safe to
  // resend.  Everything else either succeeded, is the request's own fault,
  // or failed *during* a solve where a blind resend would repeat the
  // failure.
  return code == StatusCode::rejected_overload || code == StatusCode::shutting_down;
}

std::vector<std::uint8_t> scenario_fingerprint(const SolveRequest& request) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(52);
  Writer w(bytes);
  w.put(kSolverRevision);
  w.put(request.nu);
  w.put(static_cast<std::uint32_t>(request.landscape));
  w.put(request.param0);
  w.put(request.param1);
  // The seed only matters for the random landscape; folding it in always
  // would make single-peak requests with cosmetically different seeds miss
  // the cache for the same computation.
  if (request.landscape == LandscapeKind::random) {
    w.put(request.seed);
  }
  w.put(request.p);
  w.put(request.tolerance);
  w.put(request.max_iterations);
  return bytes;
}

std::uint64_t scenario_key(const SolveRequest& request) {
  // FNV-1a is byte-sequential, so hashing the fingerprint is identical to
  // hashing the fields one by one — the key IS the hash of the witness.
  const std::vector<std::uint8_t> bytes = scenario_fingerprint(request);
  std::uint64_t hash = kFnvOffset;
  hash_bytes(hash, bytes.data(), bytes.size());
  return hash;
}

std::uint64_t batch_key(const SolveRequest& request) {
  std::uint64_t hash = kFnvOffset;
  hash_value(hash, request.nu);
  hash_value(hash, request.p);
  return hash;
}

std::string validate(const SolveRequest& request) {
  if (request.nu < 1 || request.nu > kMaxChainLength) {
    return "chain length nu must satisfy 1 <= nu <= " +
           std::to_string(kMaxChainLength);
  }
  if (request.nu > 24) {
    return "service caps nu at 24 (2^nu-sized state per batch column)";
  }
  if (!(request.p > 0.0 && request.p <= 0.5)) {
    return "error rate p must satisfy 0 < p <= 1/2";
  }
  if (!(request.tolerance > 0.0)) {
    return "tolerance must be positive";
  }
  if (request.max_iterations == 0) {
    return "max_iterations must be positive";
  }
  switch (request.landscape) {
    case LandscapeKind::single_peak:
    case LandscapeKind::linear:
      if (!(request.param0 > 0.0 && request.param1 > 0.0)) {
        return "landscape parameters must be positive";
      }
      break;
    case LandscapeKind::random:
      if (!(request.param0 > 0.0 && request.param1 > 0.0 &&
            request.param1 < request.param0 / 2.0)) {
        return "random landscape requires c > 0 and 0 < sigma < c/2";
      }
      break;
    case LandscapeKind::flat:
      if (!(request.param0 > 0.0)) {
        return "flat landscape requires c > 0";
      }
      break;
    default:
      return "unknown landscape kind";
  }
  return {};
}

std::vector<std::uint8_t> encode(const SolveRequest& request) {
  std::vector<std::uint8_t> payload;
  payload.reserve(64);
  Writer w(payload);
  w.put(request.nu);
  w.put(static_cast<std::uint32_t>(request.landscape));
  w.put(request.param0);
  w.put(request.param1);
  w.put(request.seed);
  w.put(request.p);
  w.put(request.tolerance);
  w.put(request.max_iterations);
  w.put(request.deadline_ms);
  w.put(request.trace_id);
  w.put(request.client_send_ns);
  return payload;
}

SolveRequest decode_request(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  SolveRequest request;
  request.nu = r.get<std::uint32_t>("nu");
  const auto kind = r.get<std::uint32_t>("landscape kind");
  if (kind < static_cast<std::uint32_t>(LandscapeKind::single_peak) ||
      kind > static_cast<std::uint32_t>(LandscapeKind::flat)) {
    throw ProtocolError("decode: unknown landscape kind " + std::to_string(kind));
  }
  request.landscape = static_cast<LandscapeKind>(kind);
  request.param0 = r.get<double>("param0");
  request.param1 = r.get<double>("param1");
  request.seed = r.get<std::uint64_t>("seed");
  request.p = r.get<double>("p");
  request.tolerance = r.get<double>("tolerance");
  request.max_iterations = r.get<std::uint64_t>("max_iterations");
  request.deadline_ms = r.get<std::uint64_t>("deadline_ms");
  // Optional trace tail: pre-telemetry encoders end here.
  if (!r.at_end()) {
    request.trace_id = r.get<std::uint64_t>("trace_id");
    request.client_send_ns = r.get<std::uint64_t>("client_send_ns");
  }
  r.expect_end("SolveRequest");
  return request;
}

std::vector<std::uint8_t> encode(const SolveReply& reply) {
  std::vector<std::uint8_t> payload;
  payload.reserve(96 + reply.class_concentrations.size() * sizeof(double) +
                  reply.message.size());
  Writer w(payload);
  w.put(static_cast<std::uint32_t>(reply.status));
  w.put(reply.eigenvalue);
  w.put(reply.residual);
  w.put(reply.iterations);
  w.put(static_cast<std::uint32_t>(reply.cache_hit ? 1 : 0));
  w.put(reply.queue_wait_ms);
  w.put(reply.batch_width);
  w.put(reply.deadline_slack_ms);
  w.put_string(reply.message);
  w.put_doubles(reply.class_concentrations);
  w.put(reply.trace_id);
  return payload;
}

SolveReply decode_reply(const std::vector<std::uint8_t>& payload) {
  Reader r(payload);
  SolveReply reply;
  const auto status = r.get<std::uint32_t>("status");
  if (status > static_cast<std::uint32_t>(StatusCode::internal_error)) {
    throw ProtocolError("decode: unknown status code " + std::to_string(status));
  }
  reply.status = static_cast<StatusCode>(status);
  reply.eigenvalue = r.get<double>("eigenvalue");
  reply.residual = r.get<double>("residual");
  reply.iterations = r.get<std::uint64_t>("iterations");
  reply.cache_hit = r.get<std::uint32_t>("cache_hit") != 0;
  reply.queue_wait_ms = r.get<double>("queue_wait_ms");
  reply.batch_width = r.get<std::uint32_t>("batch_width");
  reply.deadline_slack_ms = r.get<double>("deadline_slack_ms");
  reply.message = r.get_string("message");
  reply.class_concentrations = r.get_doubles("class_concentrations");
  if (!r.at_end()) {
    reply.trace_id = r.get<std::uint64_t>("trace_id");
  }
  r.expect_end("SolveReply");
  return reply;
}

}  // namespace qs::service
