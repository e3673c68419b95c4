#include "reference/fault_injection.hpp"

#include <cstring>
#include <limits>
#include <memory>

#include "support/contracts.hpp"

namespace qs::testing {

void FaultInjectingOperator::apply(std::span<const double> x,
                                   std::span<double> y) const {
  const std::size_t count = apply_count_.fetch_add(1) + 1;
  if (config_.throw_at_apply != 0 && count == config_.throw_at_apply) {
    throw InjectedFault("injected operator fault at apply " + std::to_string(count));
  }
  inner_.apply(x, y);
  const bool poison =
      config_.nan_at_apply != 0 &&
      (count == config_.nan_at_apply ||
       (config_.nan_every_apply_after && count > config_.nan_at_apply));
  if (poison) {
    require(config_.nan_index < y.size(),
            "FaultInjectingOperator: nan_index out of range");
    y[config_.nan_index] = std::numeric_limits<double>::quiet_NaN();
  }
}

void FaultInjectingEngine::dispatch(std::size_t n,
                                    const parallel::RangeKernel& kernel) const {
  const std::size_t count = dispatch_count_.fetch_add(1) + 1;
  if (config_.throw_at_dispatch == 0 || count != config_.throw_at_dispatch) {
    inner_.dispatch(n, kernel);
    return;
  }
  // Run the real kernel on every lane but make exactly one lane (the first
  // to claim the flag) throw from inside the kernel body: the backend must
  // capture it, let the other lanes finish the barrier, and rethrow here.
  auto thrown = std::make_shared<std::atomic<bool>>(false);
  inner_.dispatch(n, [&kernel, thrown](std::size_t begin, std::size_t end) {
    if (!thrown->exchange(true)) {
      throw InjectedFault("injected kernel fault in dispatch chunk [" +
                          std::to_string(begin) + ", " + std::to_string(end) + ")");
    }
    kernel(begin, end);
  });
}

std::function<void(const io::SolverCheckpoint&)> fault_injecting_checkpoint_sink(
    std::function<void(const io::SolverCheckpoint&)> delegate,
    std::size_t fail_at_write, bool fail_forever) {
  auto count = std::make_shared<std::size_t>(0);
  return [delegate = std::move(delegate), fail_at_write, fail_forever,
          count](const io::SolverCheckpoint& state) {
    const std::size_t write = ++*count;
    if (fail_at_write != 0 &&
        (write == fail_at_write || (fail_forever && write > fail_at_write))) {
      throw InjectedFault("injected checkpoint I/O failure at write " +
                          std::to_string(write));
    }
    if (delegate) delegate(state);
  };
}

void FaultInjectingStream::read_exact(void* data, std::size_t size) {
  const std::size_t count = read_count_.fetch_add(1) + 1;
  if (config_.drop_at_read != 0 && count == config_.drop_at_read) {
    throw service::TransportError("injected drop at read " + std::to_string(count));
  }
  if (config_.delay_at_read != 0 && count == config_.delay_at_read) {
    throw service::TimeoutError("injected stall at read " + std::to_string(count));
  }
  if (config_.short_read_at != 0 && count == config_.short_read_at) {
    // Model a torn frame: the peer delivered half the bytes, then the
    // connection ended.  Consume what a real short read would consume so a
    // resynchronising reader sees the same stream state.
    if (size > 1) inner_->read_exact(data, size / 2);
    throw service::TransportError("injected short read (peer closed mid-frame)");
  }
  inner_->read_exact(data, size);
  if (config_.corrupt_at_read != 0 && count == config_.corrupt_at_read) {
    auto* bytes = static_cast<std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) bytes[i] ^= 0xa5;
  }
}

void FaultInjectingStream::write_all(const void* data, std::size_t size) {
  const std::size_t count = write_count_.fetch_add(1) + 1;
  if (config_.drop_at_write != 0 && count == config_.drop_at_write) {
    throw service::TransportError("injected drop at write " + std::to_string(count));
  }
  if (config_.corrupt_at_write != 0 && count == config_.corrupt_at_write) {
    std::vector<std::uint8_t> mangled(static_cast<const std::uint8_t*>(data),
                                      static_cast<const std::uint8_t*>(data) + size);
    for (std::uint8_t& byte : mangled) byte ^= 0xa5;
    inner_->write_all(mangled.data(), mangled.size());
    return;
  }
  inner_->write_all(data, size);
}

void MemoryStream::read_exact(void* data, std::size_t size) {
  if (inbox_.size() - read_at_ < size) {
    throw service::TransportError("MemoryStream: read past the written bytes");
  }
  std::memcpy(data, inbox_.data() + read_at_, size);
  read_at_ += size;
}

void MemoryStream::write_all(const void* data, std::size_t size) {
  require(peer_ != nullptr, "MemoryStream: not wired to a peer");
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  peer_->inbox_.insert(peer_->inbox_.end(), bytes, bytes + size);
}

void FaultInjectingCacheStorage::store(std::uint64_t key,
                                       const std::vector<double>& payload) {
  const std::size_t count = store_count_.fetch_add(1) + 1;
  if (config_.throw_at_store != 0 &&
      (count == config_.throw_at_store ||
       (config_.throw_forever && count > config_.throw_at_store))) {
    throw InjectedFault("injected cache store failure at store " +
                        std::to_string(count));
  }
  if (config_.corrupt_at_store != 0 && count == config_.corrupt_at_store && inner_) {
    // Persist a silently-corrupted payload.  binary_io recomputes its
    // checksum over what we hand it, so flip the bytes BEFORE the store:
    // the file is then internally consistent but semantically garbage —
    // exactly what unpack_cache_entry's structural checks must reject.
    std::vector<double> mangled = payload;
    for (double& value : mangled) {
      std::uint64_t bits;
      std::memcpy(&bits, &value, sizeof(bits));
      bits ^= 0xa5a5a5a5a5a5a5a5ull;
      std::memcpy(&value, &bits, sizeof(bits));
    }
    inner_->store(key, mangled);
    return;
  }
  if (inner_) inner_->store(key, payload);
}

std::optional<std::vector<double>> FaultInjectingCacheStorage::load(
    std::uint64_t key) {
  const std::size_t count = load_count_.fetch_add(1) + 1;
  if (config_.throw_at_load != 0 && count == config_.throw_at_load) {
    throw InjectedFault("injected cache load failure at load " +
                        std::to_string(count));
  }
  if (!inner_) return std::nullopt;
  return inner_->load(key);
}

void FaultInjectingCacheStorage::quarantine(std::uint64_t key) noexcept {
  quarantine_count_.fetch_add(1);
  if (inner_) inner_->quarantine(key);
}

}  // namespace qs::testing
