#include "persist/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "persist/crash.hpp"

namespace iup::persist {

namespace {

// Slice-by-8 tables for the reflected 0xEDB88320 polynomial: table[0] is
// the classic bytewise table, and table[k][b] is the CRC of byte b
// followed by k zero bytes, so one lookup per byte of an 8-byte word
// replaces eight dependent bytewise steps (same CRC values).
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][n] = c;
  }
  for (std::uint32_t n = 0; n < 256; ++n) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
    }
  }
  return t;
}

std::uint32_t load_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::string errno_message(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

/// RAII fd so every early return closes.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

api::Status write_all(int fd, std::span<const std::uint8_t> bytes,
                      const std::string& path) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return api::Status::internal(errno_message("write", path));
    }
    written += static_cast<std::size_t>(n);
  }
  return {};
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const CrcTables t = make_crc_tables();
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_u32_le(p);
    const std::uint32_t hi = load_u32_le(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void ByteWriter::put_u32(std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

void ByteWriter::put_u64(std::uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

void ByteWriter::put_f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void ByteWriter::put_string(std::string_view v) {
  put_u32(static_cast<std::uint32_t>(v.size()));
  buffer_.insert(buffer_.end(), v.begin(), v.end());
}

void ByteWriter::put_matrix(const linalg::Matrix& m) {
  put_u64(m.rows());
  put_u64(m.cols());
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory doubles already are the little-endian IEEE bytes
    // put_f64 would emit one by one.
    const std::size_t size = m.data().size() * sizeof(double);
    if (size == 0) return;  // memcpy forbids the null data() of empty
    const std::size_t at = buffer_.size();
    buffer_.resize(at + size);
    std::memcpy(buffer_.data() + at, m.data().data(), size);
  } else {
    for (const double v : m.data()) put_f64(v);
  }
}

bool ByteReader::get_u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = bytes_[cursor_++];
  return true;
}

bool ByteReader::get_u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (int k = 0; k < 4; ++k) {
    v |= static_cast<std::uint32_t>(bytes_[cursor_ + k]) << (8 * k);
  }
  cursor_ += 4;
  return true;
}

bool ByteReader::get_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (int k = 0; k < 8; ++k) {
    v |= static_cast<std::uint64_t>(bytes_[cursor_ + k]) << (8 * k);
  }
  cursor_ += 8;
  return true;
}

bool ByteReader::get_f64(double& v) {
  std::uint64_t bits = 0;
  if (!get_u64(bits)) return false;
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool ByteReader::skip(std::size_t n) {
  if (remaining() < n) return false;
  cursor_ += n;
  return true;
}

bool ByteReader::get_string(std::string& v) {
  std::uint32_t length = 0;
  if (!get_u32(length) || remaining() < length) return false;
  v.assign(reinterpret_cast<const char*>(bytes_.data() + cursor_), length);
  cursor_ += length;
  return true;
}

bool ByteReader::get_matrix(linalg::Matrix& m) {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  if (!get_u64(rows) || !get_u64(cols)) return false;
  // A corrupt length prefix must not drive a multi-GB allocation: the
  // payload has 8 bytes per element, so rows*cols can never exceed what
  // is actually left in the stream.
  if (cols != 0 && rows > remaining() / 8 / cols) return false;
  if (rows * cols * 8 > remaining()) return false;
  m = linalg::Matrix(rows, cols);
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t size = m.data().size() * sizeof(double);
    if (size > 0) {
      std::memcpy(m.data().data(), bytes_.data() + cursor_, size);
      cursor_ += size;
    }
  } else {
    for (double& v : m.data()) {
      if (!get_f64(v)) return false;
    }
  }
  return true;
}

api::Status read_file(const std::string& path,
                      std::vector<std::uint8_t>& out) {
  Fd file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (file.fd < 0) {
    if (errno == ENOENT) {
      return api::Status::not_found("no such file '" + path + "'");
    }
    return api::Status::internal(errno_message("open", path));
  }
  out.clear();
  std::array<std::uint8_t, 1 << 16> chunk;
  while (true) {
    const ssize_t n = ::read(file.fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return api::Status::internal(errno_message("read", path));
    }
    if (n == 0) break;
    out.insert(out.end(), chunk.begin(), chunk.begin() + n);
  }
  return {};
}

api::Status write_file_atomic(const std::string& path,
                              std::span<const std::uint8_t> bytes,
                              bool do_fsync) {
  const std::string tmp = path + ".tmp";
  {
    Fd file{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644)};
    if (file.fd < 0) {
      return api::Status::internal(errno_message("open", tmp));
    }
    // Crash-injection seam: kill between the two halves and the rename
    // below never runs, so readers only ever see the previous complete
    // file (the .tmp leftover is ignored and overwritten next time).
    const std::size_t half = bytes.size() / 2;
    if (api::Status s = write_all(file.fd, bytes.first(half), tmp); !s.ok()) {
      return s;
    }
    maybe_crash(CrashPoint::kMidCheckpointWrite);
    if (api::Status s = write_all(file.fd, bytes.subspan(half), tmp);
        !s.ok()) {
      return s;
    }
    if (do_fsync && ::fsync(file.fd) != 0) {
      return api::Status::internal(errno_message("fsync", tmp));
    }
  }
  maybe_crash(CrashPoint::kBeforeCheckpointRename);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return api::Status::internal(errno_message("rename", tmp));
  }
  // The rename is in the page cache until the DIRECTORY entry is synced;
  // without this a crash could resurrect the old file after the caller
  // was told the new one is durable (and then truncate a WAL it must
  // not).
  if (do_fsync) {
    const std::string dir =
        std::filesystem::path(path).parent_path().string();
    Fd dirfd{::open(dir.empty() ? "." : dir.c_str(),
                    O_RDONLY | O_DIRECTORY | O_CLOEXEC)};
    if (dirfd.fd < 0) {
      return api::Status::internal(errno_message("open dir", dir));
    }
    if (::fsync(dirfd.fd) != 0) {
      return api::Status::internal(errno_message("fsync dir", dir));
    }
  }
  maybe_crash(CrashPoint::kAfterCheckpointRename);
  return {};
}

api::Status ensure_directory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return api::Status::internal("create_directories '" + dir +
                                 "': " + ec.message());
  }
  return {};
}

}  // namespace iup::persist
