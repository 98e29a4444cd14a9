// Durability: checkpoint/WAL round trips, corruption paths and recovery
// semantics.  The round-trip identity tests run in the CI SIMD cells too
// (scalar / AVX2 / AVX-512): the format stores raw IEEE-754 bytes, so a
// restore must be bit-identical at every kernel dispatch level.
#include <unistd.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.hpp"
#include "eval/experiment.hpp"
#include "ingest/faults.hpp"
#include "ingest/supervisor.hpp"
#include "persist/checkpoint.hpp"
#include "persist/durability.hpp"
#include "persist/io.hpp"
#include "persist/wal.hpp"
#include "test_util.hpp"

namespace iup::persist {
namespace {

using api::Engine;
using api::EngineConfig;
using api::StatusCode;

/// Fresh unique directory under the gtest temp root, removed on scope
/// exit.
struct TempDir {
  TempDir() {
    std::string tmpl = ::testing::TempDir() + "iup-persist-XXXXXX";
    path = ::mkdtemp(tmpl.data()) != nullptr ? tmpl : std::string();
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    if (!path.empty()) std::filesystem::remove_all(path);
  }
  std::string path;
};

Engine office_engine(const eval::EnvironmentRun& run,
                     EngineConfig config = {}) {
  Engine engine(std::move(config));
  const auto registered = eval::register_run(engine, run, "office");
  EXPECT_TRUE(registered.ok()) << registered.status().to_string();
  return engine;
}

/// Commit `days` office updates (the standard drifting-survey workload).
void run_updates(Engine& engine, const eval::EnvironmentRun& run,
                 std::initializer_list<std::size_t> days) {
  const auto cells = engine.snapshot("office").value()->reference_cells();
  for (const std::size_t day : days) {
    const auto result =
        engine.update(eval::collect_update_request(run, "office", cells, day));
    ASSERT_TRUE(result.ok()) << result.status().to_string();
  }
}

std::vector<double> probe_measurement(const Engine& engine,
                                      std::size_t column) {
  const linalg::Matrix& db =
      engine.published("office").value()->snapshot->database();
  std::vector<double> m(db.rows());
  for (std::size_t i = 0; i < db.rows(); ++i) m[i] = db(i, column) + 1.5;
  return m;
}

/// Bit-for-bit equality of two published warm states: the same entries
/// present, and every matrix and the ADMM penalty identical.
void expect_warm_identical(const serve::WarmState& a,
                           const serve::WarmState& b,
                           const std::string& site) {
  ASSERT_EQ(a.factor == nullptr, b.factor == nullptr) << site;
  if (a.factor != nullptr) {
    EXPECT_TRUE(*a.factor == *b.factor) << site;
  }
  ASSERT_EQ(a.lrr == nullptr, b.lrr == nullptr) << site;
  if (a.lrr != nullptr) {
    EXPECT_TRUE(a.lrr->z == b.lrr->z) << site;
    EXPECT_TRUE(a.lrr->y1 == b.lrr->y1) << site;
    EXPECT_TRUE(a.lrr->y2 == b.lrr->y2) << site;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.lrr->mu),
              std::bit_cast<std::uint64_t>(b.lrr->mu))
        << site;
  }
}

/// EXACT equality across everything recovery must reproduce: retained
/// chains (all matrices compared bit-for-bit), the published warm state,
/// and the localize answers for a panel of probes.
void expect_engines_identical(const Engine& a, const Engine& b) {
  ASSERT_EQ(a.store().sites(), b.store().sites());
  for (const std::string& site : a.store().sites()) {
    ASSERT_EQ(a.store().version_count(site), b.store().version_count(site));
    const std::uint64_t latest = a.store().latest(site).value()->version();
    ASSERT_EQ(latest, b.store().latest(site).value()->version());
    const std::uint64_t first =
        latest - a.store().version_count(site) + 1;
    for (std::uint64_t v = first; v <= latest; ++v) {
      const auto sa = a.store().at_version(site, v).value();
      const auto sb = b.store().at_version(site, v).value();
      EXPECT_TRUE(sa->database() == sb->database()) << site << " v" << v;
      EXPECT_TRUE(sa->mask() == sb->mask());
      EXPECT_TRUE(sa->correlation() == sb->correlation());
      EXPECT_EQ(sa->reference_cells(), sb->reference_cells());
      EXPECT_EQ(sa->day(), sb->day());
      EXPECT_EQ(sa->sources().size(), sb->sources().size());
    }
    const serve::PublishedPtr pa = a.published(site).value();
    const serve::PublishedPtr pb = b.published(site).value();
    EXPECT_EQ(pa->snapshot->version(), pb->snapshot->version());
    expect_warm_identical(pa->warm, pb->warm, site);
  }
  for (std::size_t column = 0; column < 96; column += 17) {
    const std::vector<double> m = probe_measurement(a, column);
    const auto ea = a.localize("office", m);
    const auto eb = b.localize("office", m);
    ASSERT_TRUE(ea.ok() && eb.ok());
    EXPECT_EQ(ea.value().cell, eb.value().cell) << "probe " << column;
    EXPECT_EQ(ea.value().score, eb.value().score) << "probe " << column;
  }
}

void flip_byte(const std::string& path, std::size_t offset) {
  std::vector<std::uint8_t> bytes;
  ASSERT_TRUE(read_file(path, bytes).ok());
  ASSERT_LT(offset, bytes.size());
  bytes[offset] ^= 0x40;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- byte plumbing ----------------------------------------------------

TEST(PersistIo, Crc32MatchesTheIeeeReferenceVector) {
  // The canonical check value for the 0xEDB88320 polynomial.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view("")), 0u);
}

TEST(PersistIo, Crc32MatchesABytewiseReferenceAtEveryLengthAndOffset) {
  // The slice-by-8 loop must agree with the textbook one-byte-at-a-time
  // CRC on every tail length and every alignment of the 8-byte body.
  const auto reference = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
    }
    return c ^ 0xFFFFFFFFu;
  };
  rng::Rng rng(401);
  std::vector<std::uint8_t> buffer(257 + 8);
  for (std::uint8_t& b : buffer) {
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 257; ++n) {
      const std::uint8_t* p = buffer.data() + offset;
      EXPECT_EQ(crc32(std::span<const std::uint8_t>(p, n)), reference(p, n))
          << "length " << n << " offset " << offset;
    }
  }
}

TEST(PersistIo, MatrixBodyBytesMatchThePerElementEncoding) {
  linalg::Matrix m(4, 3);
  double fill = -1.3;
  for (double& v : m.data()) v = (fill *= -1.7);
  ByteWriter bulk;
  bulk.put_matrix(m);
  ByteWriter per_element;
  per_element.put_u64(m.rows());
  per_element.put_u64(m.cols());
  for (const double v : m.data()) per_element.put_f64(v);
  EXPECT_EQ(bulk.bytes(), per_element.bytes());

  ByteWriter empty;
  empty.put_matrix(linalg::Matrix(0, 5));
  ByteReader reader(empty.span());
  linalg::Matrix out(2, 2);
  ASSERT_TRUE(reader.get_matrix(out));
  EXPECT_EQ(out.rows(), 0u);
  EXPECT_EQ(out.cols(), 5u);
  EXPECT_TRUE(reader.exhausted());
}

TEST(PersistIo, ScalarsAndMatricesRoundTripBitExactly) {
  ByteWriter writer;
  writer.put_u8(0xAB);
  writer.put_u32(0xDEADBEEF);
  writer.put_u64(0x0123456789ABCDEFull);
  writer.put_f64(-0.1);  // not exactly representable: bytes must survive
  writer.put_f64(5e-324);  // smallest denormal
  writer.put_string("office");
  linalg::Matrix m(3, 2);
  double fill = 0.1;
  for (double& v : m.data()) v = (fill += 0.7);
  writer.put_matrix(m);

  ByteReader reader(writer.span());
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double d1 = 0;
  double d2 = 0;
  std::string s;
  linalg::Matrix out;
  ASSERT_TRUE(reader.get_u8(u8) && reader.get_u32(u32) &&
              reader.get_u64(u64) && reader.get_f64(d1) &&
              reader.get_f64(d2) && reader.get_string(s) &&
              reader.get_matrix(out) && reader.exhausted());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(d1, -0.1);
  EXPECT_EQ(d2, 5e-324);
  EXPECT_EQ(s, "office");
  EXPECT_TRUE(out == m);
}

TEST(PersistIo, ReaderRejectsTruncationAndImplausibleLengths) {
  ByteWriter writer;
  writer.put_u64(1u << 20);  // rows
  writer.put_u64(1u << 20);  // cols: would be an 8 TB allocation
  ByteReader reader(writer.span());
  linalg::Matrix m;
  EXPECT_FALSE(reader.get_matrix(m));  // length exceeds the stream

  ByteReader empty(std::span<const std::uint8_t>{});
  std::uint32_t v = 0;
  EXPECT_FALSE(empty.get_u32(v));
  EXPECT_TRUE(empty.exhausted());
}

TEST(PersistIo, SnapshotCodecRoundTripsTheMultiRadioTable) {
  linalg::Matrix db(2, 6);
  linalg::Matrix mask(2, 6);
  double fill = -60.0;
  for (double& v : db.data()) v = (fill += 0.3);
  for (double& v : mask.data()) v = 1.0;
  const api::FingerprintSnapshot snapshot(
      "lab", 7, db, mask, core::BandLayout{2, 3}, {0, 2},
      linalg::Matrix(2, 6, 0.5), /*day=*/42,
      {SourceInfo{SourceId(11), Technology::kWifi},
       SourceInfo{SourceId(22), Technology::kBle}});

  ByteWriter writer;
  put_snapshot(writer, snapshot);
  ByteReader reader(writer.span());
  api::SnapshotPtr out;
  ASSERT_TRUE(get_snapshot(reader, out) && reader.exhausted());
  EXPECT_EQ(out->site(), "lab");
  EXPECT_EQ(out->version(), 7u);
  EXPECT_EQ(out->day(), 42u);
  EXPECT_TRUE(out->database() == snapshot.database());
  EXPECT_TRUE(out->mask() == snapshot.mask());
  EXPECT_TRUE(out->correlation() == snapshot.correlation());
  EXPECT_EQ(out->layout().links, 2u);
  EXPECT_EQ(out->layout().slots, 3u);
  EXPECT_EQ(out->reference_cells(), snapshot.reference_cells());
  ASSERT_EQ(out->sources().size(), 2u);
  EXPECT_EQ(out->sources()[1].id, SourceId(22));
  EXPECT_EQ(out->sources()[1].technology, Technology::kBle);
}

// --- checkpoint round trip and corruption -----------------------------

TEST(PersistCheckpoint, RoundTripRestoresBitIdenticalServing) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  run_updates(engine, run, {15, 45, 75});
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  expect_engines_identical(engine, restored);

  // Health counters travel with the checkpoint.
  const auto h = engine.site_health("office").value();
  const auto hr = restored.site_health("office").value();
  EXPECT_EQ(h.updates_ok, hr.updates_ok);
  EXPECT_EQ(h.serving_version, hr.serving_version);
  EXPECT_EQ(h.last_observed_day, hr.last_observed_day);
}

TEST(PersistCheckpoint, EveryHealthCounterRoundTrips) {
  // Every counter gets a distinct value, so a dropped, swapped or
  // misordered field on the wire shows up as a mismatch.
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  run_updates(engine, run, {15, 45});
  serve::SiteHealthCounters& h = engine.shards().find("office")->health();
  h.state.store(static_cast<std::uint32_t>(serve::SiteState::kDegraded));
  h.updates_ok.store(101);
  h.updates_failed.store(102);
  h.update_attempts.store(103);
  h.consecutive_failures.store(104);
  h.drift_triggers.store(105);
  h.deadline_trips.store(106);
  h.breaker_trips.store(107);
  h.recoveries.store(108);
  h.observations_accepted.store(109);
  h.quarantine_non_finite.store(110);
  h.quarantine_out_of_range.store(111);
  h.quarantine_unknown_link.store(112);
  h.quarantine_unknown_cell.store(113);
  h.quarantine_unknown_source.store(114);
  h.quarantine_overflow.store(115);
  h.last_observed_day.store(116);
  h.spd_cholesky_failures.store(117);
  h.spd_bump_recoveries.store(118);
  h.spd_lu_fallbacks.store(119);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  const auto r = restored.site_health("office").value();
  EXPECT_EQ(r.state, serve::SiteState::kDegraded);
  EXPECT_EQ(r.serving_version, 3u);
  EXPECT_EQ(r.serving_day, 45u);
  EXPECT_EQ(r.latest_version, 3u);
  EXPECT_EQ(r.last_observed_day, 116u);
  EXPECT_EQ(r.staleness_days, 116u - 45u);
  EXPECT_EQ(r.updates_ok, 101u);
  EXPECT_EQ(r.updates_failed, 102u);
  EXPECT_EQ(r.update_attempts, 103u);
  EXPECT_EQ(r.consecutive_failures, 104u);
  EXPECT_EQ(r.drift_triggers, 105u);
  EXPECT_EQ(r.deadline_trips, 106u);
  EXPECT_EQ(r.breaker_trips, 107u);
  EXPECT_EQ(r.recoveries, 108u);
  EXPECT_EQ(r.observations_accepted, 109u);
  EXPECT_EQ(r.quarantine_non_finite, 110u);
  EXPECT_EQ(r.quarantine_out_of_range, 111u);
  EXPECT_EQ(r.quarantine_unknown_link, 112u);
  EXPECT_EQ(r.quarantine_unknown_cell, 113u);
  EXPECT_EQ(r.quarantine_unknown_source, 114u);
  EXPECT_EQ(r.quarantine_overflow, 115u);
  EXPECT_EQ(r.quarantined_total(), 110u + 111u + 112u + 113u + 114u + 115u);
  EXPECT_EQ(r.spd_cholesky_failures, 117u);
  EXPECT_EQ(r.spd_bump_recoveries, 118u);
  EXPECT_EQ(r.spd_lu_fallbacks, 119u);
}

TEST(PersistCheckpoint, RecoveredEngineKeepsCommittingBitIdentically) {
  // The warm state is checkpoint payload precisely so POST-recovery
  // solves match: commit the same day-90 update on both engines and
  // require byte-equal databases.
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  run_updates(engine, run, {15, 45});
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());

  run_updates(engine, run, {75});
  run_updates(restored, run, {75});
  const auto a = engine.snapshot("office").value();
  const auto b = restored.snapshot("office").value();
  ASSERT_EQ(a->version(), b->version());
  EXPECT_TRUE(a->database() == b->database());
  EXPECT_TRUE(a->correlation() == b->correlation());
}

TEST(PersistCheckpoint, WarmEntryRecordedForAnOlderVersionIsDropped) {
  // Older writers recorded the solver factor at the version of the update
  // that produced it, so after set_reference_cells a checkpoint held a
  // factor one version behind the chain — one no solve would ever start
  // from.  Decoding at the chain's latest version drops exactly that
  // entry and keeps the current LRR state.
  linalg::Matrix factor(3, 2, 0.25);
  core::LrrWarmStart lrr;
  lrr.z = linalg::Matrix(2, 2, 1.5);
  lrr.y1 = linalg::Matrix(3, 2, -0.5);
  lrr.y2 = linalg::Matrix(2, 2, 2.5);
  lrr.mu = 0.125;
  ByteWriter writer;
  writer.put_u8(1);
  writer.put_u64(2);  // factor of the update that committed version 2
  writer.put_matrix(factor);
  writer.put_u8(1);
  writer.put_u64(3);  // LRR state of set_reference_cells' version 3
  writer.put_matrix(lrr.z);
  writer.put_matrix(lrr.y1);
  writer.put_matrix(lrr.y2);
  writer.put_f64(lrr.mu);

  ByteReader reader(writer.span());
  serve::WarmState warm;
  ASSERT_TRUE(get_warm(reader, /*version=*/3, warm));
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(warm.factor, nullptr);
  ASSERT_NE(warm.lrr, nullptr);
  EXPECT_TRUE(warm.lrr->z == lrr.z);
  EXPECT_TRUE(warm.lrr->y1 == lrr.y1);
  EXPECT_TRUE(warm.lrr->y2 == lrr.y2);
  EXPECT_EQ(warm.lrr->mu, lrr.mu);

  // Each entry is kept only at its own recorded version.
  ByteReader at2(writer.span());
  serve::WarmState warm2;
  ASSERT_TRUE(get_warm(at2, /*version=*/2, warm2));
  ASSERT_NE(warm2.factor, nullptr);
  EXPECT_TRUE(*warm2.factor == factor);
  EXPECT_EQ(warm2.lrr, nullptr);
}

TEST(PersistCheckpoint, SetReferenceCellsRoundTripStaysBitIdentical) {
  // set_reference_cells publishes no solver factor, so the update after
  // a restore at that version must start cold on both engines.
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  run_updates(engine, run, {15});
  const auto cells = engine.reference_cells("office").value();
  ASSERT_TRUE(engine.set_reference_cells("office", cells).ok());
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  expect_engines_identical(engine, restored);
  EXPECT_EQ(restored.published("office").value()->warm.factor, nullptr);

  run_updates(engine, run, {45});
  run_updates(restored, run, {45});
  expect_engines_identical(engine, restored);
}

TEST(PersistCheckpoint, RespectsHistoryLimitChains) {
  // A chain that starts above version 1 (history-limit eviction) must
  // restore with the same window and keep committing.
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run, EngineConfig().history_limit(2));
  run_updates(engine, run, {15, 45, 75});  // retained window: v3, v4
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());

  Engine restored(EngineConfig().history_limit(2));
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.store().version_count("office"), 2u);
  EXPECT_EQ(restored.store().latest("office").value()->version(), 4u);
  EXPECT_EQ(restored.store().at_version("office", 1).status().code(),
            StatusCode::kNotFound);
  run_updates(restored, run, {90});
  EXPECT_EQ(restored.store().latest("office").value()->version(), 5u);
}

TEST(PersistCheckpoint, RestoreIntoNonEmptyEngineIsFailedPrecondition) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  EXPECT_EQ(engine.restore_from(dir.path).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistCheckpoint, MissingOrEmptyDirectoryIsNotFound) {
  TempDir dir;
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(), StatusCode::kNotFound);
  EXPECT_EQ(fresh.restore_from(dir.path + "/does-not-exist").code(),
            StatusCode::kNotFound);
}

TEST(PersistCheckpoint, FlippedBitInASectionIsDataLoss) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  // Offset 64 sits inside the first site section's payload (header is 16
  // bytes + 12 bytes of section framing).
  flip_byte(dir.path + "/" + kCheckpointFile, 64);
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(fresh.store().sites().empty());  // nothing partially applied
}

TEST(PersistCheckpoint, FlippedBitInTheMagicIsDataLoss) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  flip_byte(dir.path + "/" + kCheckpointFile, 0);
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(), StatusCode::kDataLoss);
}

TEST(PersistCheckpoint, DifferentFormatVersionIsFailedPrecondition) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  Engine engine = office_engine(run);
  ASSERT_TRUE(engine.save_checkpoint(dir.path).ok());
  // The format u32 lives right after the 8-byte magic; bump it.
  flip_byte(dir.path + "/" + kCheckpointFile, 8);
  Engine fresh;
  EXPECT_EQ(fresh.restore_from(dir.path).code(),
            StatusCode::kFailedPrecondition);
}

// --- WAL semantics ----------------------------------------------------

/// Durability manager over a fresh engine: hooks composed BEFORE the
/// engine exists, bound after.
struct DurableOffice {
  explicit DurableOffice(const std::string& dir, std::size_t every,
                         api::UpdateHooks inner = {})
      : manager({dir, every, /*fsync=*/false}),
        engine(EngineConfig().update_hooks(manager.engine_hooks(
            std::move(inner)))) {}
  DurabilityManager manager;
  Engine engine;
};

TEST(PersistWal, WalOnlyRecoveryReplaysFromRegistration) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, /*every=*/0);  // never roll: WAL only
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15, 45});
  EXPECT_EQ(durable.manager.wal_appends(), 3u);  // registration + 2
  EXPECT_EQ(durable.manager.checkpoints_written(), 0u);
  ASSERT_TRUE(durable.manager.last_error().ok());

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  expect_engines_identical(durable.engine, restored);
}

TEST(PersistWal, TruncatedTailIsDroppedNotFatal) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, 0);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15, 45});

  // Chop bytes off the last record: the torn-tail signature.  Recovery
  // drops exactly that record and serves version 2.
  const std::string wal = dir.path + "/" + kWalFile;
  const auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 33);
  std::vector<WalRecord> records;
  bool dropped = false;
  ASSERT_TRUE(read_wal(wal, records, &dropped).ok());
  EXPECT_TRUE(dropped);
  ASSERT_EQ(records.size(), 2u);

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.store().latest("office").value()->version(), 2u);
  EXPECT_TRUE(restored.store().latest("office").value()->database() ==
              durable.engine.store().at_version("office", 2).value()
                  ->database());
}

TEST(PersistWal, FlippedBitMidStreamIsDataLoss) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, 0);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15});
  // Offset 20 is inside the FIRST record's payload and more records
  // follow it: not a tail, so truncation must NOT be attempted.
  flip_byte(dir.path + "/" + kWalFile, 20);
  Engine restored;
  EXPECT_EQ(restored.restore_from(dir.path).code(), StatusCode::kDataLoss);
}

TEST(PersistWal, FlippedBitInTheFinalRecordIsATornTail) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, 0);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15});
  const auto size =
      std::filesystem::file_size(dir.path + "/" + kWalFile);
  flip_byte(dir.path + "/" + kWalFile, static_cast<std::size_t>(size) - 9);
  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.store().latest("office").value()->version(), 1u);
}

// --- DurabilityManager lifecycle --------------------------------------

TEST(PersistDurability, CheckpointRollTruncatesTheWal) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurableOffice durable(dir.path, /*every=*/2);
  ASSERT_TRUE(durable.manager.bind(&durable.engine).ok());
  ASSERT_TRUE(eval::register_run(durable.engine, run, "office").ok());
  run_updates(durable.engine, run, {15, 45, 75});  // 4 commits total
  EXPECT_EQ(durable.manager.wal_appends(), 4u);
  EXPECT_EQ(durable.manager.checkpoints_written(), 2u);
  ASSERT_TRUE(durable.manager.last_error().ok());
  // 4 commits, roll every 2: the WAL holds no full records right now.
  std::vector<WalRecord> records;
  ASSERT_TRUE(read_wal(dir.path + "/" + kWalFile, records).ok());
  EXPECT_TRUE(records.empty());

  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  expect_engines_identical(durable.engine, restored);
}

TEST(PersistDurability, ConcurrentCommitsCheckpointTheirOwnWarmState) {
  // Four sites commit concurrently while every commit rolls a checkpoint,
  // so rolls land between other sites' publishes and WAL appends.  Each
  // checkpoint takes the warm state from the bundle under the same lock
  // hold as the chain, so a restore after every batch must reproduce each
  // site's published warm state bit for bit.
  const auto& run = iup::test::office_run();
  TempDir dir;
  DurabilityManager manager({dir.path, /*checkpoint_every=*/1,
                             /*fsync=*/false});
  Engine engine(
      EngineConfig().threads(4).update_hooks(manager.engine_hooks()));
  ASSERT_TRUE(manager.bind(&engine).ok());
  const std::vector<std::string> sites = {"office-a", "office-b", "office-c",
                                          "office-d"};
  for (const std::string& site : sites) {
    ASSERT_TRUE(eval::register_run(engine, run, site).ok());
  }
  const auto cells = engine.reference_cells("office-a").value();
  for (const std::size_t day : {5u, 15u, 30u, 45u, 75u, 90u}) {
    std::vector<api::UpdateRequest> batch;
    for (const std::string& site : sites) {
      batch.push_back(eval::collect_update_request(run, site, cells, day));
    }
    for (const auto& result : engine.update_batch(batch)) {
      ASSERT_TRUE(result.ok()) << result.status().to_string();
    }
    ASSERT_TRUE(manager.last_error().ok());

    Engine restored;
    ASSERT_TRUE(restored.restore_from(dir.path).ok());
    for (const std::string& site : sites) {
      const serve::PublishedPtr live = engine.published(site).value();
      const serve::PublishedPtr back = restored.published(site).value();
      ASSERT_EQ(live->snapshot->version(), back->snapshot->version())
          << site << " day " << day;
      EXPECT_TRUE(live->snapshot->database() == back->snapshot->database())
          << site << " day " << day;
      expect_warm_identical(live->warm, back->warm, site);
    }
  }
}

TEST(PersistDurability, RecoverBindsAndCompactsAndFreshDirIsOk) {
  const auto& run = iup::test::office_run();
  TempDir dir;
  {
    DurableOffice writer(dir.path, 0);  // WAL-only state on disk
    ASSERT_TRUE(writer.manager.bind(&writer.engine).ok());
    ASSERT_TRUE(eval::register_run(writer.engine, run, "office").ok());
    run_updates(writer.engine, run, {15});
  }
  DurableOffice reader(dir.path, 16);
  ASSERT_TRUE(reader.manager.recover(&reader.engine).ok());
  EXPECT_EQ(reader.engine.store().latest("office").value()->version(), 2u);
  // recover() compacts: checkpoint written, WAL reset.
  EXPECT_EQ(reader.manager.checkpoints_written(), 1u);
  std::vector<WalRecord> records;
  ASSERT_TRUE(read_wal(dir.path + "/" + kWalFile, records).ok());
  EXPECT_TRUE(records.empty());

  // A brand-new directory is a normal first boot, not an error.
  TempDir empty;
  DurableOffice boot(empty.path, 16);
  ASSERT_TRUE(boot.manager.recover(&boot.engine).ok());
  EXPECT_TRUE(boot.engine.store().sites().empty());
}

TEST(PersistDurability, SupervisorRearmsADegradedSiteAfterRestore) {
  const auto& run = iup::test::office_run();
  TempDir dir;

  // Drive the writer's site into kDegraded with a fault injector, then
  // checkpoint it.
  ingest::FaultInjector faults(7);
  Engine writer(EngineConfig().update_hooks(faults.engine_hooks()));
  ASSERT_TRUE(eval::register_run(writer, run, "office").ok());
  ingest::SupervisorOptions immediate;
  immediate.backoff_initial = std::chrono::milliseconds(0);
  immediate.backoff_max = std::chrono::milliseconds(0);
  immediate.breaker_cooldown = std::chrono::milliseconds(0);
  {
    ingest::UpdateSupervisor supervisor(writer, immediate);
    ASSERT_TRUE(supervisor.watch("office").ok());
    faults.arm(ingest::FaultKind::kSolverFailure);
    ASSERT_TRUE(supervisor.trigger("office").ok());
    for (int k = 0; k < 3; ++k) ASSERT_EQ(supervisor.pump(), 1u);
  }
  ASSERT_EQ(writer.site_health("office").value().state,
            serve::SiteState::kDegraded);
  ASSERT_TRUE(writer.save_checkpoint(dir.path).ok());

  // Restore: the site comes back degraded (still serving last-good) and
  // watch() re-arms the probe protocol instead of resetting to healthy —
  // the first pump runs a half-open probe, which commits and recovers.
  Engine restored;
  ASSERT_TRUE(restored.restore_from(dir.path).ok());
  EXPECT_EQ(restored.site_health("office").value().state,
            serve::SiteState::kDegraded);
  ingest::UpdateSupervisor supervisor(restored, immediate);
  ASSERT_TRUE(supervisor.watch("office").ok());
  ASSERT_EQ(supervisor.pump(), 1u);  // probe ran with no new trigger
  const auto health = restored.site_health("office").value();
  EXPECT_EQ(health.state, serve::SiteState::kHealthy);
  EXPECT_GE(health.recoveries, 1u);
  EXPECT_EQ(health.serving_version, 2u);
}

}  // namespace
}  // namespace iup::persist
