// Solver-service message schema: SolveRequest / SolveReply and their wire
// encodings, plus the two content hashes the service schedules by.
//
// A request names a *scenario* — chain length nu, uniform error rate p, a
// parametric fitness landscape, and the solver tolerances — rather than
// shipping the 2^nu landscape values: the service reconstructs the
// landscape locally (landscape generation is deterministic, including the
// `random` kind via its seed), which keeps frames small and makes the
// scenario content-addressable:
//
//   scenario_key — FNV-1a64 over every field that determines the answer
//                  (nu, landscape kind + params + seed, p, tolerance,
//                  iteration cap).  Cache/dedupe *index* only: a 64-bit
//                  hash is not proof of equality, so every consumer pairs
//                  it with scenario_fingerprint — the canonical bytes the
//                  key hashes — and verifies byte equality before treating
//                  two requests as the same computation.
//   batch_key    — FNV-1a64 over (nu, p) only: requests sharing a mutation
//                  model Q coalesce into one panel batch and ride
//                  analysis::sweep_landscape_family (W_j = Q F_j, one
//                  memory sweep advances the whole batch).
//
// Deadlines travel as relative milliseconds (deadline_ms from server
// receipt) — wall-clock timestamps would couple client and server clocks.
//
// Encodings are little-endian fixed-width fields through a bounds-checked
// Reader: a truncated or corrupted payload throws ProtocolError at the
// offending field, never reads past the buffer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/transport.hpp"

namespace qs::service {

/// Parametric landscape families a request can name.
enum class LandscapeKind : std::uint32_t {
  single_peak = 1,  ///< param0 = peak, param1 = rest
  linear = 2,       ///< param0 = f0, param1 = f_nu
  random = 3,       ///< param0 = c, param1 = sigma, seed = RNG seed
  flat = 4,         ///< param0 = c
};

const char* to_string(LandscapeKind kind);

/// One solve scenario plus its scheduling envelope.
struct SolveRequest {
  std::uint32_t nu = 8;
  LandscapeKind landscape = LandscapeKind::single_peak;
  double param0 = 10.0;
  double param1 = 1.0;
  std::uint64_t seed = 1;  ///< Only meaningful for LandscapeKind::random.
  double p = 0.01;         ///< Uniform error rate of the mutation model.
  double tolerance = 1e-10;
  std::uint64_t max_iterations = 200000;
  std::uint64_t deadline_ms = 0;  ///< Relative to server receipt; 0 = none.

  // Trace context: propagated end-to-end, never part of the scenario —
  // scenario_key/fingerprint and batch_key exclude both fields so tracing
  // can never split or poison cache/dedupe/coalescing decisions.  Both
  // ride an optional frame tail: decoders accept frames without them.
  std::uint64_t trace_id = 0;        ///< 0 = untraced request.
  std::uint64_t client_send_ns = 0;  ///< Client CLOCK_MONOTONIC at send; lets
                                     ///< a same-host server start the request
                                     ///< span at the true send time (0 = not
                                     ///< stamped).
};

/// Outcome classification carried in every reply.  The daemon NEVER answers
/// a failure by dropping the connection: every admitted request gets exactly
/// one reply with one of these codes (that is the fault-injection suite's
/// core assertion).
enum class StatusCode : std::uint32_t {
  ok = 0,
  rejected_overload = 1,  ///< Admission control shed the request; retry later.
  deadline_exceeded = 2,  ///< Expired in queue or cancelled mid-solve.
  cancelled = 3,          ///< Client disconnected; solve aborted cooperatively.
  bad_request = 4,        ///< Malformed or precondition-violating scenario.
  solver_failure = 5,     ///< Structured SolverFailure after recovery attempts.
  shutting_down = 6,      ///< Daemon draining; request not admitted.
  internal_error = 7,     ///< Worker threw; daemon still serving.
};

const char* to_string(StatusCode code);

/// True for codes a client may safely retry against the same daemon (the
/// request was never solved and is side-effect free).
bool retryable(StatusCode code);

/// Reply to one SolveRequest: the eigenpair summary in error-class form plus
/// the per-request service telemetry the ISSUE requires (queue wait, batch
/// width, cache hit, deadline slack).
struct SolveReply {
  StatusCode status = StatusCode::internal_error;
  double eigenvalue = 0.0;   ///< Rayleigh quotient of the answer.
  double residual = 0.0;     ///< Relative 2-norm residual ||Wx - lambda x||_2
                             ///< / (lambda ||x||_2), the facade's measure.
  std::uint64_t iterations = 0;  ///< Panel products of the batch's solve.
  std::vector<double> class_concentrations;  ///< [Gamma_0..Gamma_nu] when ok.
  std::string message;                       ///< Diagnostic for non-ok codes.

  // Service telemetry, filled for every status.
  bool cache_hit = false;
  double queue_wait_ms = 0.0;     ///< push() to pop_batch() latency.
  std::uint32_t batch_width = 0;  ///< Panel columns solved alongside this one.
  double deadline_slack_ms = 0.0; ///< Deadline minus completion (negative =
                                  ///< missed); 0 when no deadline was set.
  std::uint64_t trace_id = 0;     ///< Echo of the request's trace id.
};

/// Revision of the solver behind every answer, the first field of
/// scenario_fingerprint.  The disk cache outlives the daemon binary, so a
/// change to a solve's bits or stopping rule bumps it, and answers cached
/// by an older solver miss instead of being served.  2: misses stop by the
/// facade's rule (the relative 2-norm residual of solvers::run_power_loop).
inline constexpr std::uint32_t kSolverRevision = 2;

/// FNV-1a64 content hash of everything that determines the answer — the
/// cache/dedupe index.  Equal keys are only *probably* the same
/// computation; confirm with scenario_fingerprint before serving one
/// scenario's answer for another.
std::uint64_t scenario_key(const SolveRequest& request);

/// Canonical little-endian encoding of exactly the fields scenario_key
/// hashes, led by kSolverRevision.  Byte equality of fingerprints ==
/// identical computation; this is the collision-proof witness stored beside
/// every cache entry and checked on every hit and in-batch dedupe.
std::vector<std::uint8_t> scenario_fingerprint(const SolveRequest& request);

/// FNV-1a64 over (nu, p): requests sharing a mutation model coalesce.
std::uint64_t batch_key(const SolveRequest& request);

/// Validates scenario fields (nu range, p range, positive fitness params).
/// Returns an empty string when valid, else the violated requirement.
std::string validate(const SolveRequest& request);

std::vector<std::uint8_t> encode(const SolveRequest& request);
std::vector<std::uint8_t> encode(const SolveReply& reply);

/// Throws ProtocolError on truncated or out-of-range payloads.
SolveRequest decode_request(const std::vector<std::uint8_t>& payload);
SolveReply decode_reply(const std::vector<std::uint8_t>& payload);

}  // namespace qs::service
