// Byte-level plumbing for the durability layer: CRC32, a little-endian
// binary writer/reader pair, and the atomic-publication file helpers
// (write-to-temp + fsync + rename + directory fsync) every durable
// artifact in src/persist/ is built from.
//
// Encoding rules (shared by checkpoint sections and WAL records):
//   * integers are fixed-width little-endian (u8/u32/u64),
//   * doubles are raw IEEE-754 bits (memcpy through u64), which is what
//     makes a round trip bit-exact — the same discipline as the CSV
//     layer's byte-stable doubles, without the text detour,
//   * strings and matrices are length-prefixed (u32 chars / u64 rows +
//     u64 cols, then rows*cols doubles row-major); on little-endian hosts
//     a matrix body is one bulk memcpy, byte-identical to the
//     per-element encoding.
// The reader never throws and never reads past its span: every getter
// returns false once the stream is short or a length prefix is
// implausible, and the caller turns that into a precise Status.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "api/status.hpp"
#include "linalg/matrix.hpp"

namespace iup::persist {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG one) over `bytes`.
/// Software slice-by-8 tables: eight bytes per step instead of one, so
/// the checksum of every WAL record and checkpoint section stays far
/// below the fsync cost that bounds the durability hot path.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);
inline std::uint32_t crc32(std::string_view bytes) {
  return crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

/// Append-only little-endian encoder over an owned byte buffer.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buffer_.push_back(v); }
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_f64(double v);
  /// u32 length prefix + raw chars.
  void put_string(std::string_view v);
  /// u64 rows + u64 cols + rows*cols raw doubles (row-major).
  void put_matrix(const linalg::Matrix& m);

  const std::vector<std::uint8_t>& bytes() const { return buffer_; }
  std::span<const std::uint8_t> span() const { return buffer_; }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Cursor over an immutable byte span; the span must outlive the reader.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool get_u8(std::uint8_t& v);
  bool get_u32(std::uint32_t& v);
  bool get_u64(std::uint64_t& v);
  bool get_f64(double& v);
  bool get_string(std::string& v);
  bool get_matrix(linalg::Matrix& m);

  /// Advance past `n` bytes (framing: a validated payload is re-read
  /// through its own ByteReader); false when fewer than `n` remain.
  bool skip(std::size_t n);

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool exhausted() const { return remaining() == 0; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

/// Read a whole file into `out`.  kNotFound when the path does not
/// exist; kInternal for any other I/O failure.
api::Status read_file(const std::string& path, std::vector<std::uint8_t>& out);

/// Atomic publication: write `bytes` to `<path>.tmp`, fsync the file,
/// rename over `path`, then fsync the parent directory so the rename
/// itself is durable.  A crash at any point leaves either the complete
/// old file or the complete new one — never a torn mix (the checkpoint
/// crash-injection tests SIGKILL inside this function to prove it).
/// `do_fsync` false skips both fsyncs (benchmarks on throwaway dirs).
api::Status write_file_atomic(const std::string& path,
                              std::span<const std::uint8_t> bytes,
                              bool do_fsync = true);

/// Create `dir` (and parents) if missing.
api::Status ensure_directory(const std::string& dir);

}  // namespace iup::persist
