#include "io/binary_io.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <system_error>

namespace qs::io {
namespace {

constexpr std::uint32_t kMagic = 0x51535631;  // "QSV1"
// Version 2 adds the payload checksum and the checkpoint progress trailer;
// version 3 extends the checkpoint trailer with the writing solver's kind,
// its cumulative mat-vec count, and one solver-specific scalar; version 4
// appends the power iteration's shift schedule state.  Version 2 and 3
// files still load (the extra fields default to zero / `unspecified`).
constexpr std::uint32_t kVersion = 4;
constexpr std::uint32_t kMinVersion = 2;

// Hard ceiling on a declared payload (2^37 doubles = 1 TiB): a corrupted
// length field must fail with a structured error, never drive the reader
// toward a near-2^64 allocation.
constexpr std::uint64_t kMaxPayloadDoubles = 1ull << 37;

enum class PayloadKind : std::uint32_t {
  vector = 1,
  landscape = 2,
  checkpoint = 3,
};

static_assert(std::endian::native == std::endian::little,
              "binary_io assumes a little-endian host");

struct Header {
  std::uint32_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t kind = 0;
  std::uint32_t checksum = 0;  // FNV-1a over the raw payload bytes
  std::uint64_t meta0 = 0;     // element count
  std::uint64_t meta1 = 0;     // kind-specific (nu / iteration)
  double meta2 = 0.0;          // kind-specific (eigenvalue)
};

/// 32-bit FNV-1a over the payload bytes.  Not cryptographic — the threat
/// model is a torn write or bit rot, not an adversary.
std::uint32_t payload_checksum(std::span<const double> data) {
  std::uint32_t hash = 2166136261u;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  const std::size_t n = data.size() * sizeof(double);
  for (std::size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 16777619u;
  }
  return hash;
}

/// Writes header + payload to a temporary sibling and renames it over
/// `path`.  rename(2) is atomic within a filesystem, so a crash at any point
/// leaves either the old file or the new one — never a torn hybrid.
void write_file(const std::filesystem::path& path, PayloadKind kind,
                std::uint64_t meta1, double meta2, std::span<const double> data) {
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) {
      throw std::runtime_error("binary_io: cannot open for writing: " + tmp.string());
    }
    Header header;
    header.kind = static_cast<std::uint32_t>(kind);
    header.checksum = payload_checksum(data);
    header.meta0 = data.size();
    header.meta1 = meta1;
    header.meta2 = meta2;
    file.write(reinterpret_cast<const char*>(&header), sizeof(header));
    file.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size() * sizeof(double)));
    file.flush();
    if (!file) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw std::runtime_error("binary_io: write failed: " + tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw std::runtime_error("binary_io: cannot rename " + tmp.string() + " to " +
                             path.string() + ": " + ec.message());
  }
}

struct LoadedFile {
  Header header;
  std::vector<double> data;
};

LoadedFile read_file(const std::filesystem::path& path, PayloadKind expected) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw std::runtime_error("binary_io: cannot open for reading: " + path.string());
  }
  std::error_code ec;
  const std::uintmax_t file_size = std::filesystem::file_size(path, ec);
  if (ec) {
    throw std::runtime_error("binary_io: cannot stat " + path.string() + ": " +
                             ec.message());
  }
  LoadedFile out;
  if (file_size < sizeof(out.header)) {
    throw std::runtime_error("binary_io: file shorter than the header (torn write?): " +
                             path.string());
  }
  file.read(reinterpret_cast<char*>(&out.header), sizeof(out.header));
  if (!file || out.header.magic != kMagic) {
    throw std::runtime_error("binary_io: bad magic (not a quasispecies file): " +
                             path.string());
  }
  if (out.header.version < kMinVersion || out.header.version > kVersion) {
    throw std::runtime_error("binary_io: unsupported version in " + path.string());
  }
  if (out.header.kind != static_cast<std::uint32_t>(expected)) {
    throw std::runtime_error("binary_io: unexpected payload kind in " + path.string());
  }
  // Validate the declared length against the actual file size *before*
  // allocating or reading: a torn write (or a corrupted count) must produce
  // a clear diagnostic, not a short read or a huge allocation.  The count
  // is compared against the bytes actually present (never multiplied out —
  // a corrupted 2^61-ish count would overflow the product and could slip
  // past a size comparison straight into a massive allocation) and against
  // an absolute ceiling no legitimate file reaches.
  const std::uintmax_t payload_bytes = file_size - sizeof(out.header);
  if (out.header.meta0 > kMaxPayloadDoubles) {
    throw std::runtime_error(
        "binary_io: absurd payload length in " + path.string() +
        ": header declares " + std::to_string(out.header.meta0) +
        " doubles, above the " + std::to_string(kMaxPayloadDoubles) +
        " ceiling (corrupted header?)");
  }
  if (payload_bytes % sizeof(double) != 0 ||
      out.header.meta0 != payload_bytes / sizeof(double)) {
    throw std::runtime_error(
        "binary_io: payload length mismatch in " + path.string() + ": header declares " +
        std::to_string(out.header.meta0) + " doubles but the file holds " +
        std::to_string(payload_bytes) + " payload bytes (torn write?)");
  }
  out.data.resize(out.header.meta0);
  file.read(reinterpret_cast<char*>(out.data.data()),
            static_cast<std::streamsize>(out.data.size() * sizeof(double)));
  if (!file) {
    throw std::runtime_error("binary_io: truncated payload in " + path.string());
  }
  if (payload_checksum(out.data) != out.header.checksum) {
    throw std::runtime_error("binary_io: payload checksum mismatch in " + path.string() +
                             " (torn write or corruption)");
  }
  return out;
}

// The checkpoint payload carries a fixed progress trailer ahead of the
// eigenvector so the stall-window state survives the round trip.  Version 2
// wrote the first four slots; version 3 appends the solver kind, the
// cumulative mat-vec count, and the solver-specific aux scalar; version 4
// the nine fields of the shift schedule.
constexpr std::size_t kCheckpointTrailerV2 = 4;
constexpr std::size_t kCheckpointTrailerV3 = 7;
constexpr std::size_t kCheckpointTrailer = 16;

/// Limits of the counts the trailer stores as doubles: 2^53, above which a
/// double no longer holds every integer, and the 32-bit fields' range.
constexpr double kMaxCount = 9007199254740992.0;
constexpr double kMaxUint32 = 4294967295.0;

/// A count the trailer stores as a double, refused before the cast when no
/// writer could have produced it (non-integral, negative, non-finite or
/// above `limit`): converting such a double to an integer is undefined.
std::uint64_t stored_count(double v, double limit, const std::filesystem::path& path) {
  if (!(v >= 0.0 && v <= limit && v == std::floor(v))) {
    throw std::runtime_error("binary_io: corrupt checkpoint progress field in " +
                             path.string());
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

void save_vector(const std::filesystem::path& path, std::span<const double> data) {
  write_file(path, PayloadKind::vector, 0, 0.0, data);
}

std::vector<double> load_vector(const std::filesystem::path& path) {
  return read_file(path, PayloadKind::vector).data;
}

void save_landscape(const std::filesystem::path& path,
                    const core::Landscape& landscape) {
  write_file(path, PayloadKind::landscape, landscape.nu(), 0.0, landscape.values());
}

core::Landscape load_landscape(const std::filesystem::path& path) {
  auto loaded = read_file(path, PayloadKind::landscape);
  return core::Landscape::from_values(static_cast<unsigned>(loaded.header.meta1),
                                      std::move(loaded.data));
}

void save_checkpoint(const std::filesystem::path& path, const SolverCheckpoint& state) {
  std::vector<double> payload;
  payload.reserve(kCheckpointTrailer + state.eigenvector.size());
  payload.push_back(state.residual);
  payload.push_back(state.best_residual);
  payload.push_back(state.window_start_best);
  payload.push_back(static_cast<double>(state.checks_without_progress));
  payload.push_back(static_cast<double>(static_cast<std::uint32_t>(state.solver_kind)));
  payload.push_back(static_cast<double>(state.matvec_count));
  payload.push_back(state.aux);
  const ShiftScheduleState& schedule = state.schedule;
  payload.push_back(static_cast<double>(schedule.phase));
  payload.push_back(static_cast<double>(schedule.position));
  payload.push_back(schedule.last_residual);
  payload.push_back(schedule.last_ratio);
  payload.push_back(schedule.decay);
  payload.push_back(schedule.upper);
  payload.push_back(schedule.best);
  payload.push_back(static_cast<double>(schedule.engaged_at));
  payload.push_back(static_cast<double>(schedule.fallbacks));
  payload.insert(payload.end(), state.eigenvector.begin(), state.eigenvector.end());
  write_file(path, PayloadKind::checkpoint, state.iteration, state.eigenvalue, payload);
}

SolverCheckpoint load_checkpoint(const std::filesystem::path& path) {
  auto loaded = read_file(path, PayloadKind::checkpoint);
  const std::uint32_t version = loaded.header.version;
  const std::size_t trailer = version >= 4   ? kCheckpointTrailer
                              : version == 3 ? kCheckpointTrailerV3
                                             : kCheckpointTrailerV2;
  if (loaded.data.size() < trailer) {
    throw std::runtime_error("binary_io: checkpoint payload too short in " +
                             path.string());
  }
  SolverCheckpoint out;
  out.iteration = loaded.header.meta1;
  out.eigenvalue = loaded.header.meta2;
  out.residual = loaded.data[0];
  out.best_residual = loaded.data[1];
  out.window_start_best = loaded.data[2];
  out.checks_without_progress = stored_count(loaded.data[3], kMaxCount, path);
  if (version >= 3) {
    out.solver_kind = static_cast<SolverKind>(
        static_cast<std::uint32_t>(stored_count(loaded.data[4], kMaxUint32, path)));
    out.matvec_count = stored_count(loaded.data[5], kMaxCount, path);
    out.aux = loaded.data[6];
  }
  if (version >= 4) {
    const double* slot = loaded.data.data() + kCheckpointTrailerV3;
    ShiftScheduleState& schedule = out.schedule;
    schedule.phase = static_cast<std::uint32_t>(stored_count(slot[0], 1.0, path));
    schedule.position = static_cast<std::uint32_t>(stored_count(slot[1], kMaxUint32, path));
    schedule.last_residual = slot[2];
    schedule.last_ratio = slot[3];
    schedule.decay = slot[4];
    schedule.upper = slot[5];
    schedule.best = slot[6];
    schedule.engaged_at = stored_count(slot[7], kMaxCount, path);
    schedule.fallbacks = stored_count(slot[8], kMaxCount, path);
  }
  out.eigenvector.assign(loaded.data.begin() + trailer, loaded.data.end());
  return out;
}

}  // namespace qs::io
