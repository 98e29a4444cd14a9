// The binary checkpoint format for durable engine state.
//
// One checkpoint file captures every site's retained snapshot chain
// (X, B, masks, reference cells, correlation Z, source tables, day/version
// labels), the warm state of its published bundle and the health counters
// — everything a fresh engine needs to serve and to keep SOLVING
// bit-identically to the uninterrupted process (the warm state changes
// later solver iterates, which is why it is first-class checkpoint
// payload, not an optimization detail).
//
// File layout (all integers little-endian, doubles raw IEEE-754 — see
// persist/io.hpp):
//
//   +--------------------------------------------------------------+
//   | magic "IUPCKPT1" (8 bytes)                                   |
//   | format version u32                                           |
//   | site count u32                                               |
//   +-- per site -------------------------------------------------+
//   | payload length u64 | payload crc32 u32 | payload bytes ...   |
//   +--------------------------------------------------------------+
//
// A site payload is its name, the chain's latest version (the version
// its bundle serves), the chain, the warm state and the health counters.
// Each warm entry records the version it belongs to; readers drop an
// entry recorded for any version but the latest, which no solve would
// ever start from.
//
// The header is validated by its magic (a flipped bit there is
// kDataLoss, a different format version is kFailedPrecondition); each
// site section carries its own CRC32 so a flipped bit anywhere in the
// payload is pinpointed to a site and reported as kDataLoss — a damaged
// checkpoint is never partially applied.
//
// Publication is atomic (persist::write_file_atomic: temp + fsync +
// rename + dir fsync), so the file named kCheckpointFile is always a
// complete checkpoint from SOME moment; the WAL (persist/wal.hpp) covers
// the suffix since then.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/snapshot.hpp"
#include "api/status.hpp"
#include "persist/io.hpp"
#include "serve/health.hpp"
#include "serve/shard.hpp"

namespace iup::persist {

inline constexpr char kCheckpointMagic[8] = {'I', 'U', 'P', 'C',
                                             'K', 'P', 'T', '1'};
inline constexpr std::uint32_t kFormatVersion = 1;
/// File names inside a durability directory.
inline constexpr const char* kCheckpointFile = "CHECKPOINT";
inline constexpr const char* kWalFile = "WAL";

/// Plain-value copy of serve::SiteHealthCounters (the atomics sampled
/// relaxed, restored with relaxed stores): the state word, then the
/// counters of IUP_SITE_HEALTH_COUNTERS, which is also the wire order.
struct HealthImage {
  std::uint32_t state = 0;
#define IUP_HEALTH_FIELD(name) std::uint64_t name = 0;
  IUP_SITE_HEALTH_COUNTERS(IUP_HEALTH_FIELD)
#undef IUP_HEALTH_FIELD
};

/// One checkpointed site: the retained chain (oldest first, contiguous
/// versions — may start above 1 after history-limit eviction), the warm
/// state its latest version's bundle published (shared_ptrs: collecting
/// an image never copies a matrix, and restoring publishes these exact
/// objects), and the health state.
struct SiteImage {
  std::string site;
  std::vector<api::SnapshotPtr> chain;
  serve::WarmState warm;
  HealthImage health;
};

/// Everything a checkpoint holds, sites sorted by name (deterministic
/// bytes for identical state).
struct EngineImage {
  std::vector<SiteImage> sites;
};

// --- encoding building blocks (shared with the WAL's record payloads) --

/// Serialize one snapshot / warm state into `writer` (WAL records reuse
/// these exact encoders, so checkpoint and log bytes can never drift
/// apart).  Each present warm entry is recorded at `version`, the
/// snapshot version whose bundle carries it.
void put_snapshot(ByteWriter& writer, const api::FingerprintSnapshot& s);
void put_warm(ByteWriter& writer, const serve::WarmState& warm,
              std::uint64_t version);
/// Decode counterparts; false on truncated/implausible bytes.  get_warm
/// leaves null every entry recorded at a version other than `version`.
bool get_snapshot(ByteReader& reader, api::SnapshotPtr& out);
bool get_warm(ByteReader& reader, std::uint64_t version,
              serve::WarmState& out);

/// Encode/decode a whole checkpoint.  decode validates magic, format
/// version and every section CRC; on any failure `out` is left untouched.
std::vector<std::uint8_t> encode_checkpoint(const EngineImage& image);
api::Status decode_checkpoint(std::span<const std::uint8_t> bytes,
                              EngineImage& out);

/// Write `image` as `dir`/CHECKPOINT with atomic publication.
api::Status save_checkpoint_file(const std::string& dir,
                                 const EngineImage& image,
                                 bool do_fsync = true);
/// Load `dir`/CHECKPOINT; kNotFound when the file does not exist.
api::Status load_checkpoint_file(const std::string& dir, EngineImage& out);

}  // namespace iup::persist
