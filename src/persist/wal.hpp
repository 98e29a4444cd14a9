// Write-ahead log of committed updates.
//
// One CRC-framed record is appended per committed snapshot (registration,
// set_reference_cells and every update() commit), so recovery is "load
// the last checkpoint, replay the WAL suffix".  Each record carries the
// committed snapshot's full bytes PLUS the warm state its published
// bundle carries — a redo log of results, not of inputs.  Replaying
// inputs (re-running the solver) would NOT reproduce the uninterrupted
// process bit for bit, because the warm state seeds later solves; storing
// the exact bytes makes recovery trivially bit-exact and much faster than
// a re-solve.
//
// Record frame:
//
//   | magic u32 "IWAL" | payload length u64 | payload crc32 u32 | payload |
//
// Torn-tail tolerance on replay (the append is not atomic — a crash can
// land mid-record): an incomplete frame header, a payload shorter than
// its declared length, or a CRC mismatch on the FINAL record are all the
// signature of a torn append and are dropped (the in-flight commit is
// lost, never a published prefix).  A bad magic or CRC mismatch with
// MORE records after it cannot be a torn tail — that is real corruption,
// reported as kDataLoss and never served.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "persist/checkpoint.hpp"

namespace iup::persist {

inline constexpr std::uint32_t kWalRecordMagic = 0x4C415749;  // "IWAL" LE

/// One committed update: the snapshot and the warm state it published.
struct WalRecord {
  api::SnapshotPtr snapshot;
  serve::WarmState warm;
};

/// Encode/decode one record payload (the bytes inside the frame).
std::vector<std::uint8_t> encode_wal_record(const WalRecord& record);
bool decode_wal_record(std::span<const std::uint8_t> bytes, WalRecord& out);

/// Append-only WAL writer over one file.  Not internally synchronised —
/// the DurabilityManager serialises appends under its own mutex.
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Open `path` for appending (`truncate` starts a fresh log — the
  /// post-checkpoint roll).  Reopening closes the previous fd.
  api::Status open(const std::string& path, bool truncate);
  bool is_open() const { return fd_ >= 0; }
  void close();

  /// Frame + append + (optionally) fsync one record.  The frame header
  /// and payload are written separately with a crash point between them,
  /// so the SIGKILL harness can manufacture genuine torn tails.
  api::Status append(const WalRecord& record, bool do_fsync = true);

 private:
  int fd_ = -1;
  std::string path_;
};

/// Read every complete record of `path`, applying the torn-tail rules
/// above.  A missing file yields an empty log (fresh start) — recovery
/// treats "no WAL" and "empty WAL" identically.  `dropped_tail` (optional)
/// reports whether a torn tail was discarded.
api::Status read_wal(const std::string& path, std::vector<WalRecord>& out,
                     bool* dropped_tail = nullptr);

}  // namespace iup::persist
