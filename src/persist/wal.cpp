#include "persist/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "persist/crash.hpp"

namespace iup::persist {

namespace {

std::string errno_message(const char* what, const std::string& path) {
  return std::string(what) + " '" + path + "': " + std::strerror(errno);
}

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

std::vector<std::uint8_t> encode_wal_record(const WalRecord& record) {
  ByteWriter payload;
  put_snapshot(payload, *record.snapshot);
  put_warm(payload, record.warm, record.snapshot->version());
  return payload.bytes();
}

bool decode_wal_record(std::span<const std::uint8_t> bytes, WalRecord& out) {
  ByteReader reader(bytes);
  WalRecord record;
  if (!get_snapshot(reader, record.snapshot) ||
      !get_warm(reader, record.snapshot->version(), record.warm) ||
      !reader.exhausted()) {
    return false;
  }
  out = std::move(record);
  return true;
}

WalWriter::~WalWriter() { close(); }

api::Status WalWriter::open(const std::string& path, bool truncate) {
  close();
  const int flags =
      O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC | (truncate ? O_TRUNC : 0);
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return api::Status::internal(errno_message("open", path));
  }
  path_ = path;
  return {};
}

void WalWriter::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  path_.clear();
}

api::Status WalWriter::append(const WalRecord& record, bool do_fsync) {
  if (fd_ < 0) {
    return api::Status::failed_precondition("WAL writer is not open");
  }
  const std::vector<std::uint8_t> payload = encode_wal_record(record);
  ByteWriter header;
  header.put_u32(kWalRecordMagic);
  header.put_u64(payload.size());
  header.put_u32(crc32(payload));
  maybe_crash(CrashPoint::kBeforeWalAppend);
  if (api::Status s = write_all(fd_, header.span(), path_); !s.ok()) return s;
  // Crash-injection seam between the two writes: a SIGKILL here leaves a
  // frame header with no (or partial) payload — exactly the torn tail
  // read_wal must tolerate.
  maybe_crash(CrashPoint::kMidWalRecord);
  if (api::Status s = write_all(fd_, payload, path_); !s.ok()) return s;
  if (do_fsync && ::fsync(fd_) != 0) {
    return api::Status::internal(errno_message("fsync", path_));
  }
  maybe_crash(CrashPoint::kAfterWalAppend);
  return {};
}

api::Status read_wal(const std::string& path, std::vector<WalRecord>& out,
                     bool* dropped_tail) {
  if (dropped_tail != nullptr) *dropped_tail = false;
  std::vector<std::uint8_t> bytes;
  if (api::Status s = read_file(path, bytes); !s.ok()) {
    if (s.code() == api::StatusCode::kNotFound) {
      out.clear();
      return {};
    }
    return s;
  }
  std::vector<WalRecord> records;
  ByteReader reader(bytes);
  while (!reader.exhausted()) {
    // Incomplete header → torn tail (a crash landed inside the very
    // first write of an append).
    if (reader.remaining() < 16) {
      if (dropped_tail != nullptr) *dropped_tail = true;
      break;
    }
    std::uint32_t magic = 0;
    std::uint64_t length = 0;
    std::uint32_t crc = 0;
    reader.get_u32(magic);
    reader.get_u64(length);
    reader.get_u32(crc);
    if (magic != kWalRecordMagic) {
      // A torn append never rewrites earlier bytes, so a bad magic is
      // damage inside the committed prefix — not recoverable by
      // truncation.
      return api::Status::data_loss(
          "WAL: bad record magic at offset " +
          std::to_string(bytes.size() - reader.remaining() - 16) +
          " — log is corrupt beyond its tail");
    }
    if (reader.remaining() < length) {
      // Header landed, payload didn't finish: torn tail.
      if (dropped_tail != nullptr) *dropped_tail = true;
      break;
    }
    const std::span<const std::uint8_t> payload =
        std::span<const std::uint8_t>(bytes).subspan(
            bytes.size() - reader.remaining(), length);
    reader.skip(length);
    WalRecord record;
    if (crc32(payload) != crc || !decode_wal_record(payload, record)) {
      if (reader.exhausted()) {
        // Final record damaged → indistinguishable from a torn append
        // whose payload bytes half-landed; drop it.
        if (dropped_tail != nullptr) *dropped_tail = true;
        break;
      }
      return api::Status::data_loss(
          "WAL: CRC/decode failure on a non-final record — log is corrupt "
          "beyond its tail");
    }
    records.push_back(std::move(record));
  }
  out = std::move(records);
  return {};
}

}  // namespace iup::persist
