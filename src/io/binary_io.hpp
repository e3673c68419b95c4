// Binary persistence for concentration vectors and landscapes.
//
// The paper's closing remark makes memory the binding constraint "given the
// new solver"; long-running large-nu computations therefore need durable
// state: landscapes are experiment inputs worth pinning, and a power
// iteration interrupted at nu = 26 should resume instead of restart.  The
// format is a fixed little-endian header (magic, version, kind, a payload
// checksum, two u64 metadata fields) followed by the raw double payload.
//
// Durability guarantees (the resilience layer relies on both):
//   * every save_* writes to a temporary sibling file and atomically renames
//     it over the destination, so a crash mid-write can never tear an
//     existing file — the previous version stays intact;
//   * the header carries an FNV-1a checksum of the payload and the declared
//     payload length is validated against the actual file size on load, so
//     a torn or tampered file is rejected with a clear error instead of
//     being half-read.
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/landscape.hpp"

namespace qs::io {

/// Writes a bare double vector. Throws std::runtime_error on I/O failure.
void save_vector(const std::filesystem::path& path, std::span<const double> data);

/// Reads a vector written by save_vector. Throws std::runtime_error on I/O
/// failure or malformed content (bad magic/version/kind, length mismatch
/// against the actual file size, or checksum mismatch).
std::vector<double> load_vector(const std::filesystem::path& path);

/// Writes a landscape (chain length + values).
void save_landscape(const std::filesystem::path& path, const core::Landscape& landscape);

/// Reads a landscape written by save_landscape.
core::Landscape load_landscape(const std::filesystem::path& path);

/// Which solver wrote a checkpoint.  Stored in the file (format v3) so a
/// resume can refuse a checkpoint from a different iteration scheme with a
/// clear message instead of silently mis-resuming.
enum class SolverKind : std::uint32_t {
  unspecified = 0,  ///< Pre-v3 files and the plain power iteration.
  power = 0,        ///< Alias: the power iteration is the v2 default.
  arnoldi = 2,
  block_power = 3,
  // 1 and 4 were retired solvers' kinds; a file that carries them (or any
  // other value) loads, and every resume refuses it.
};

/// The power iteration's shift schedule (solvers::run_power_loop): which
/// phase it is in and where in its cycle of shifts, so a resumed run picks
/// the same shift for every remaining product.  Value-initialised, it is
/// the cold-start state: estimating the decay rate, nothing observed yet.
struct ShiftScheduleState {
  std::uint32_t phase = 0;          ///< 0 estimating the decay, 1 cycling.
  std::uint32_t position = 0;       ///< Cycle slot of the next product.
  double last_residual = 0.0;       ///< Previous check's residual (0: none).
  double last_ratio = 0.0;          ///< Previous decay ratio (0: none).
  double decay = 0.0;               ///< rho-hat, the decay that set `upper`.
  double upper = 0.0;               ///< lambda-hat_2, the interval's top.
  double best = 0.0;                ///< Lowest residual at a cycle boundary.
  std::uint64_t engaged_at = 0;     ///< Iteration the cycling last engaged.
  std::uint64_t fallbacks = 0;      ///< Cycles that failed to lower `best`.
};

/// Iteration checkpoint: the current iterate plus enough progress state to
/// resume the run exactly where it stopped.  The stall-tracking fields
/// mirror the iteration driver's stagnation window so a resumed run
/// reproduces the original residual trajectory bit for bit.
///
/// The solver-specific fields (format v3):
///   * solver_kind identifies the writing solver (v2 files load as
///     `unspecified`, which the power iteration accepts);
///   * matvec_count restores the restarted Arnoldi solver's cumulative
///     operator-product count;
///   * aux carries one solver-specific scalar: the panel width m for block
///     power;
///   * schedule (format v4) is the power iteration's shift schedule; v2
///     and v3 files load with the cold-start state.
/// For block power the `eigenvector` payload holds the full interleaved
/// n x m panel (n * m doubles), taken verbatim on resume.
struct SolverCheckpoint {
  std::uint64_t iteration = 0;
  double eigenvalue = 0.0;
  double residual = 0.0;                 ///< Last computed relative residual.
  double best_residual = 0.0;            ///< Best residual seen so far.
  double window_start_best = 0.0;        ///< Stall window reference residual.
  std::uint64_t checks_without_progress = 0;  ///< Residual checks this window.
  SolverKind solver_kind = SolverKind::unspecified;  ///< Writing solver.
  std::uint64_t matvec_count = 0;        ///< Operator products so far.
  double aux = 0.0;                      ///< Solver-specific scalar (see above).
  ShiftScheduleState schedule;           ///< Power iteration shift schedule.
  std::vector<double> eigenvector;       ///< Iterate (or panel), verbatim.
};

/// Writes a solver checkpoint (atomically, see file comment).
void save_checkpoint(const std::filesystem::path& path, const SolverCheckpoint& state);

/// Reads a solver checkpoint.
SolverCheckpoint load_checkpoint(const std::filesystem::path& path);

}  // namespace qs::io
