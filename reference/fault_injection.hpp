// Fault-injection harness for the resilience layer.
//
// Long-running solves must survive three failure families: a poisoned
// product (NaN/Inf sneaking into the iterate), a kernel body that throws
// mid-dispatch on a parallel backend, and checkpoint I/O that fails while a
// solve is healthy.  These wrappers inject each fault deterministically at a
// configured call index so tests can prove the corresponding guard fires:
//
//   * FaultInjectingOperator — wraps any LinearOperator; overwrites one
//     entry of the product with NaN at the k-th apply (once or from then
//     on), or throws InjectedFault from the k-th apply;
//   * FaultInjectingEngine — wraps any Engine; the kernel body of the k-th
//     dispatch throws InjectedFault from inside one lane, exercising the
//     backend's capture-barrier-rethrow path;
//   * FaultInjectingCheckpointSink — a PowerOptions::checkpoint_sink that
//     delegates to a real sink (or swallows) but throws at the k-th write.
//
// The solver service adds two more failure families, injected at its own
// seams:
//
//   * FaultInjectingStream — wraps a service::Stream and corrupts the wire:
//     drop (connection dies at the k-th operation), delay (operation stalls
//     past the peer's timeout), short-read (EOF mid-frame), corrupt (bytes
//     flip in flight) — the transport-level chaos the daemon must answer
//     with structured errors, never a wedge;
//   * FaultInjectingCacheStorage — wraps a service::CacheStorage; stores
//     throw (sick disk) or silently corrupt the payload (bit rot the
//     checksummed loader must catch and quarantine).
//
// The wrappers live in the quasispecies_reference library, which tests,
// benches and examples link and the production tools do not; they have zero
// overhead when not engaged.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/operators.hpp"
#include "io/binary_io.hpp"
#include "parallel/engine.hpp"
#include "service/scenario_cache.hpp"
#include "service/transport.hpp"

namespace qs::testing {

/// The exception every injected throw raises; tests catch precisely this.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wraps a LinearOperator and injects a fault at a configured apply index
/// (1-based).  Exactly one fault kind should be configured; 0 disables.
class FaultInjectingOperator final : public core::LinearOperator {
 public:
  struct Config {
    std::size_t nan_at_apply = 0;    ///< Poison the product of this apply.
    bool nan_every_apply_after = false;  ///< Keep poisoning once triggered
                                         ///< (persistent vs transient fault).
    std::size_t nan_index = 0;       ///< Which product entry to poison.
    std::size_t throw_at_apply = 0;  ///< Throw InjectedFault on this apply.
  };

  FaultInjectingOperator(const core::LinearOperator& inner, Config config)
      : inner_(inner), config_(config) {}

  seq_t dimension() const override { return inner_.dimension(); }
  std::string_view name() const override { return "fault-injecting"; }
  void apply(std::span<const double> x, std::span<double> y) const override;

  /// Applies performed so far (faulty ones included).
  std::size_t apply_count() const { return apply_count_.load(); }

 private:
  const core::LinearOperator& inner_;
  Config config_;
  mutable std::atomic<std::size_t> apply_count_{0};
};

/// Wraps an Engine and makes the kernel body of the k-th dispatch throw
/// InjectedFault from inside exactly one lane; all
/// other lanes run normally, so the test exercises the backend's
/// first-exception capture and barrier completion, not an empty dispatch.
class FaultInjectingEngine final : public parallel::Engine {
 public:
  struct Config {
    std::size_t throw_at_dispatch = 0;  ///< 1-based dispatch index; 0 = never.
  };

  FaultInjectingEngine(const parallel::Engine& inner, Config config)
      : inner_(inner), config_(config) {}

  std::string_view name() const override { return inner_.name(); }
  unsigned concurrency() const override { return inner_.concurrency(); }
  void dispatch(std::size_t n, const parallel::RangeKernel& kernel) const override;

  std::size_t dispatch_count() const { return dispatch_count_.load(); }

 private:
  const parallel::Engine& inner_;
  Config config_;
  mutable std::atomic<std::size_t> dispatch_count_{0};
};

/// Builds a PowerOptions::checkpoint_sink that forwards every write to
/// `delegate` (pass {} to discard writes) but throws InjectedFault at the
/// k-th write (1-based; every write from then on also throws when
/// `fail_forever`), modelling a full disk or a vanished mount mid-solve.
std::function<void(const io::SolverCheckpoint&)> fault_injecting_checkpoint_sink(
    std::function<void(const io::SolverCheckpoint&)> delegate,
    std::size_t fail_at_write, bool fail_forever = false);

/// Wraps a service::Stream and injects transport faults at configured
/// operation indices (1-based, counted separately for reads and writes;
/// 0 disables a fault).  Owns the inner stream.
class FaultInjectingStream final : public service::Stream {
 public:
  struct Config {
    std::size_t drop_at_read = 0;    ///< TransportError (peer died) at read k.
    std::size_t drop_at_write = 0;   ///< TransportError at write k.
    std::size_t delay_at_read = 0;   ///< TimeoutError (stall) at read k.
    std::size_t short_read_at = 0;   ///< Deliver only half the bytes of read
                                     ///< k, then report EOF (torn frame).
    std::size_t corrupt_at_read = 0; ///< Flip bits in the bytes of read k.
    std::size_t corrupt_at_write = 0;///< Flip bits in the bytes of write k.
  };

  FaultInjectingStream(std::unique_ptr<service::Stream> inner, Config config)
      : inner_(std::move(inner)), config_(config) {}

  void read_exact(void* data, std::size_t size) override;
  void write_all(const void* data, std::size_t size) override;

  std::size_t read_count() const { return read_count_.load(); }
  std::size_t write_count() const { return write_count_.load(); }

 private:
  std::unique_ptr<service::Stream> inner_;
  Config config_;
  std::atomic<std::size_t> read_count_{0};
  std::atomic<std::size_t> write_count_{0};
};

/// In-memory service::Stream half: what one side writes, the other reads
/// (two of these, cross-wired via make_stream_pair, emulate a socket pair
/// without fds — the substrate FaultInjectingStream corrupts in tests).
class MemoryStream final : public service::Stream {
 public:
  void read_exact(void* data, std::size_t size) override;
  void write_all(const void* data, std::size_t size) override;

  /// Bytes written here become readable from `peer`.
  void wire_to(MemoryStream* peer) { peer_ = peer; }

 private:
  MemoryStream* peer_ = nullptr;
  std::vector<std::uint8_t> inbox_;
  std::size_t read_at_ = 0;
};

/// Wraps a service::CacheStorage and injects persistence faults: stores
/// throw at the k-th call (sick disk), or the k-th stored payload is
/// corrupted in flight (bit rot the checksummed loader must quarantine).
/// `inner` may be null (memory-only cache): corrupt faults then have no
/// target and store faults still throw.
class FaultInjectingCacheStorage final : public service::CacheStorage {
 public:
  struct Config {
    std::size_t throw_at_store = 0;    ///< InjectedFault at store k (1-based).
    bool throw_forever = false;        ///< Every store from k on throws.
    std::size_t corrupt_at_store = 0;  ///< Store k writes flipped bytes.
    std::size_t throw_at_load = 0;     ///< InjectedFault at load k.
  };

  FaultInjectingCacheStorage(std::unique_ptr<service::CacheStorage> inner,
                             Config config)
      : inner_(std::move(inner)), config_(config) {}

  void store(std::uint64_t key, const std::vector<double>& payload) override;
  std::optional<std::vector<double>> load(std::uint64_t key) override;
  void quarantine(std::uint64_t key) noexcept override;

  std::size_t store_count() const { return store_count_.load(); }
  std::size_t quarantine_count() const { return quarantine_count_.load(); }

 private:
  std::unique_ptr<service::CacheStorage> inner_;
  Config config_;
  std::atomic<std::size_t> store_count_{0};
  std::atomic<std::size_t> load_count_{0};
  std::atomic<std::size_t> quarantine_count_{0};
};

}  // namespace qs::testing
