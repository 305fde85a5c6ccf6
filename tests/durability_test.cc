// Crash-safety tests for the durable-storage subsystem: CRC32C, the
// fault-injecting filesystem, WAL append/recovery, power-cut sweeps over the
// log tail (on disk and on a MemFs), snapshot compaction, and the platform
// facade's store.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/file.h"
#include "common/json.h"
#include "platform/api.h"
#include "platform/model_registry.h"
#include "platform/tvdp.h"
#include "storage/durable_catalog.h"
#include "storage/serializer.h"
#include "storage/tvdp_schema.h"
#include "storage/wal.h"

namespace tvdp {
namespace {

using storage::Row;
using storage::Value;

// ---------- CRC32C ----------

TEST(Crc32Test, KnownAnswerVectors) {
  // RFC 3720 Appendix B / the usual CRC32C check value.
  EXPECT_EQ(Crc32c(std::string("123456789")), 0xE3069283u);
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  // 32 zero bytes, another standard vector.
  std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  // 32 bytes of 0xFF.
  std::vector<uint8_t> ones(32, 0xFF);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32cExtend(
        0, reinterpret_cast<const uint8_t*>(data.data()), split);
    crc = Crc32cExtend(crc,
                       reinterpret_cast<const uint8_t*>(data.data()) + split,
                       data.size() - split);
    ASSERT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32Test, DetectsSingleByteChanges) {
  std::vector<uint8_t> data(257);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint8_t>(i);
  uint32_t base = Crc32c(data);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x40;
    EXPECT_NE(Crc32c(data), base) << "flip at " << i;
    data[i] ^= 0x40;
  }
}

// ---------- test scaffolding ----------

/// A unique scratch directory per test, removed on teardown.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string templ = ::testing::TempDir() + "tvdp_durXXXXXX";
    std::vector<char> buf(templ.begin(), templ.end());
    buf.push_back('\0');
    ASSERT_NE(mkdtemp(buf.data()), nullptr);
    dir_ = buf.data();
  }

  void TearDown() override {
    std::string cmd = "rm -rf '" + dir_ + "'";
    (void)std::system(cmd.c_str());
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// A catalog with one simple table for storage-level tests.
  static storage::Catalog MakeItemsCatalog() {
    storage::Catalog catalog;
    storage::Schema schema({
        {"name", storage::ValueType::kString, false, std::nullopt},
        {"qty", storage::ValueType::kInt64, false, std::nullopt},
    });
    EXPECT_TRUE(catalog.CreateTable("items", std::move(schema)).ok());
    return catalog;
  }

  static Row ItemRow(const std::string& name, int64_t qty) {
    return Row{Value(name), Value(qty)};
  }

  /// Copies a file byte-for-byte through `fs`.
  static void CopyFile(Fs& fs, const std::string& from,
                       const std::string& to) {
    auto bytes = fs.ReadAll(from);
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto out = fs.OpenWritable(to, /*truncate=*/true);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(*bytes).ok());
    ASSERT_TRUE((*out)->Close().ok());
  }

  /// The WAL crash tests run over each `Fs` a store lives on: the disk
  /// (`Tvdp::Open`) and a MemFs (`Tvdp::Create`, fleets without a base
  /// path). Each test wraps it in a FaultInjectingFs.
  std::vector<std::pair<std::string, Fs*>> BaseFileSystems() {
    return {{"disk", Fs::Default()}, {"memfs", &mem_fs_}};
  }

  std::string dir_;
  MemFs mem_fs_;
};

// ---------- FaultInjectingFs ----------

TEST_F(DurabilityTest, FaultFsInjectsTransientErrorsThenRecovers) {
  FaultInjectingFs fs(Fs::Default());
  fs.InjectErrors(2);
  auto file = fs.OpenWritable(Path("f"), true);
  ASSERT_TRUE(file.ok());
  std::vector<uint8_t> payload{1, 2, 3};
  Status s1 = (*file)->Append(payload);
  EXPECT_EQ(s1.code(), StatusCode::kIOError);
  Status s2 = (*file)->Sync();
  EXPECT_EQ(s2.code(), StatusCode::kIOError);
  // Fault budget exhausted: writes go through again.
  EXPECT_TRUE((*file)->Append(payload).ok());
  EXPECT_TRUE((*file)->Sync().ok());
  EXPECT_TRUE((*file)->Close().ok());
  auto size = fs.FileSize(Path("f"));
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 3u);
  EXPECT_EQ(fs.injected_faults(), 2);
}

TEST_F(DurabilityTest, FaultFsShortWritePersistsOnlyPrefix) {
  FaultInjectingFs fs(Fs::Default());
  auto file = fs.OpenWritable(Path("f"), true);
  ASSERT_TRUE(file.ok());
  fs.InjectShortWrite(2);
  std::vector<uint8_t> payload{9, 8, 7, 6, 5};
  EXPECT_EQ((*file)->Append(payload).code(), StatusCode::kIOError);
  ASSERT_TRUE((*file)->Close().ok());
  auto bytes = fs.ReadAll(Path("f"));
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, (std::vector<uint8_t>{9, 8}));
}

TEST_F(DurabilityTest, FaultFsPowerCutSilentlyDropsTail) {
  for (const auto& [name, base_fs] : BaseFileSystems()) {
    SCOPED_TRACE(name);
    FaultInjectingFs fs(base_fs);
    fs.SetPowerCutAfter(4);
    auto file = fs.OpenWritable(Path("f"), true);
    ASSERT_TRUE(file.ok());
    std::vector<uint8_t> payload{1, 2, 3, 4, 5, 6};
    // The writer sees success — the bytes past the cut just never land.
    EXPECT_TRUE((*file)->Append(payload).ok());
    EXPECT_TRUE((*file)->Sync().ok());
    EXPECT_TRUE((*file)->Close().ok());
    EXPECT_TRUE(fs.power_cut_hit());
    auto bytes = fs.ReadAll(Path("f"));
    ASSERT_TRUE(bytes.ok());
    EXPECT_EQ(*bytes, (std::vector<uint8_t>{1, 2, 3, 4}));
  }
}

// ---------- WAL ----------

TEST_F(DurabilityTest, WalAppendRecoverRoundTrip) {
  const std::string path = Path("log.wal");
  {
    auto wal = storage::Wal::Open(Fs::Default(), path);
    ASSERT_TRUE(wal.ok());
    for (int i = 1; i <= 5; ++i) {
      storage::WalRecord rec{"items", i, ItemRow("item" + std::to_string(i),
                                                 i * 10)};
      ASSERT_TRUE(wal->Append(rec, /*sync=*/i % 2 == 0).ok());
    }
    ASSERT_TRUE(wal->Sync().ok());
  }
  auto recovery = storage::Wal::Recover(Fs::Default(), path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 5u);
  EXPECT_EQ(recovery->dropped_bytes, 0u);
  for (int i = 1; i <= 5; ++i) {
    const storage::WalRecord& rec = recovery->records[static_cast<size_t>(i - 1)];
    EXPECT_EQ(rec.table, "items");
    EXPECT_EQ(rec.row_id, i);
    ASSERT_EQ(rec.values.size(), 2u);
    EXPECT_EQ(rec.values[0].AsString(), "item" + std::to_string(i));
    EXPECT_EQ(rec.values[1].AsInt64(), i * 10);
  }
}

TEST_F(DurabilityTest, WalBroadcastRecordsRoundTrip) {
  const std::string path = Path("broadcast.wal");
  {
    auto wal = storage::Wal::Open(Fs::Default(), path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(storage::WalRecord::BroadcastIntent(
                                7, "register_classification",
                                "{\"name\":\"scene\"}", {3, 3, 4}),
                            /*sync=*/true)
                    .ok());
    ASSERT_TRUE(
        wal->Append(storage::WalRecord::BroadcastCommit(7), true).ok());
    ASSERT_TRUE(wal->Append(storage::WalRecord::BroadcastAbort(9), true).ok());
  }
  auto recovery = storage::Wal::Recover(Fs::Default(), path);
  ASSERT_TRUE(recovery.ok());
  ASSERT_EQ(recovery->records.size(), 3u);
  const storage::WalRecord& intent = recovery->records[0];
  EXPECT_EQ(intent.type, storage::WalRecordType::kBroadcastIntent);
  EXPECT_EQ(intent.broadcast_id, 7);
  EXPECT_EQ(intent.op, "register_classification");
  EXPECT_EQ(intent.payload, "{\"name\":\"scene\"}");
  EXPECT_EQ(intent.target_ids, (std::vector<int64_t>{3, 3, 4}));
  EXPECT_EQ(recovery->records[1].type,
            storage::WalRecordType::kBroadcastCommit);
  EXPECT_EQ(recovery->records[1].broadcast_id, 7);
  EXPECT_EQ(recovery->records[2].type,
            storage::WalRecordType::kBroadcastAbort);
  EXPECT_EQ(recovery->records[2].broadcast_id, 9);
}

TEST_F(DurabilityTest, BroadcastLogSurvivesReopenAndCheckpoints) {
  const std::string base = Path("store");
  {
    auto dc = storage::DurableCatalog::Open(base);
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
    ASSERT_TRUE(dc->AppendBroadcast(storage::WalRecord::BroadcastIntent(
                      1, "register_classification", "{}", {5}))
                    .ok());
    ASSERT_TRUE(dc->AppendBroadcast(storage::WalRecord::BroadcastCommit(1))
                    .ok());
    ASSERT_TRUE(dc->AppendBroadcast(storage::WalRecord::BroadcastIntent(
                      2, "register_classification", "{\"k\":1}", {6}))
                    .ok());
    // Unlike the insert WAL, a checkpoint must not reset the broadcast log:
    // broadcast 2 is still unresolved.
    ASSERT_TRUE(dc->Insert("items", ItemRow("a", 1)).ok());
    ASSERT_TRUE(dc->Checkpoint().ok());
  }
  {
    auto dc = storage::DurableCatalog::Open(base);
    ASSERT_TRUE(dc.ok()) << dc.status();
    auto pending = dc->PendingBroadcasts();
    ASSERT_EQ(pending.size(), 1u);
    EXPECT_EQ(pending[0].broadcast_id, 2);
    EXPECT_EQ(pending[0].payload, "{\"k\":1}");
    EXPECT_EQ(pending[0].target_ids, (std::vector<int64_t>{6}));
    // The resolved broadcast was compacted away, but its id survives in
    // the high-water marker so ids never regress.
    EXPECT_EQ(dc->max_broadcast_id(), 2);
    ASSERT_TRUE(dc->AppendBroadcast(storage::WalRecord::BroadcastAbort(2))
                    .ok());
  }
  {
    auto dc = storage::DurableCatalog::Open(base);
    ASSERT_TRUE(dc.ok()) << dc.status();
    EXPECT_TRUE(dc->PendingBroadcasts().empty());
    EXPECT_EQ(dc->max_broadcast_id(), 2);
  }
}

TEST_F(DurabilityTest, BroadcastLogRejectsInsertRecords) {
  const std::string base = Path("bstore");
  auto dc = storage::DurableCatalog::Open(base);
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
  storage::WalRecord insert{"items", 1, ItemRow("a", 1)};
  auto s = dc->AppendBroadcast(insert);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_F(DurabilityTest, WalRecoverOnMissingFileIsEmpty) {
  auto recovery = storage::Wal::Recover(Fs::Default(), Path("absent.wal"));
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->records.empty());
}

TEST_F(DurabilityTest, WalRecoveryTruncatesGarbageTail) {
  const std::string path = Path("log.wal");
  auto wal = storage::Wal::Open(Fs::Default(), path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append({"items", 1, ItemRow("a", 1)}, true).ok());
  uint64_t committed = wal->size_bytes();
  // A torn frame: plausible header, truncated payload.
  std::vector<uint8_t> garbage{42, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2};
  auto raw = Fs::Default()->OpenWritable(path, /*truncate=*/false);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE((*raw)->Append(garbage).ok());
  ASSERT_TRUE((*raw)->Close().ok());

  auto recovery = storage::Wal::Recover(Fs::Default(), path);
  ASSERT_TRUE(recovery.ok());
  EXPECT_EQ(recovery->records.size(), 1u);
  EXPECT_EQ(recovery->valid_bytes, committed);
  EXPECT_EQ(recovery->dropped_bytes, garbage.size());
  // The garbage is gone from disk, so a second recovery is clean.
  auto size = Fs::Default()->FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, committed);
}

TEST_F(DurabilityTest, WalRejectsBitFlippedRecords) {
  const std::string path = Path("log.wal");
  {
    auto wal = storage::Wal::Open(Fs::Default(), path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append({"items", 1, ItemRow("abcdef", 123)}, true).ok());
  }
  auto pristine = Fs::Default()->ReadAll(path);
  ASSERT_TRUE(pristine.ok());
  for (size_t pos = 0; pos < pristine->size(); ++pos) {
    std::vector<uint8_t> flipped = *pristine;
    flipped[pos] ^= 0x01;
    auto out = Fs::Default()->OpenWritable(path, /*truncate=*/true);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE((*out)->Append(flipped).ok());
    ASSERT_TRUE((*out)->Close().ok());
    auto recovery = storage::Wal::Recover(Fs::Default(), path);
    ASSERT_TRUE(recovery.ok());
    EXPECT_EQ(recovery->records.size(), 0u) << "flip at " << pos;
  }
}

TEST_F(DurabilityTest, WalDecodesPreReplicationRecordsWithEpochZero) {
  const std::string path = Path("legacy.wal");
  // Hand-frame two mutations in the pre-replication layout (tags 0/4, no
  // epoch bytes) — the format every WAL written before replication holds.
  storage::BinaryWriter insert;
  insert.WriteU8(0);  // pre-replication kInsert
  insert.WriteString("items");
  insert.WriteI64(7);
  insert.WriteU32(2);
  insert.WriteValue(Value(std::string("legacy")));
  insert.WriteValue(Value(static_cast<int64_t>(42)));
  storage::BinaryWriter del;
  del.WriteU8(4);  // pre-replication kDelete
  del.WriteString("items");
  del.WriteI64(7);

  storage::BinaryWriter file;
  for (const std::vector<uint8_t>* payload :
       {&insert.buffer(), &del.buffer()}) {
    file.WriteU32(static_cast<uint32_t>(payload->size()));
    file.WriteU32(Crc32c(*payload));
    for (uint8_t b : *payload) file.WriteU8(b);
  }
  auto out = Fs::Default()->OpenWritable(path, /*truncate=*/true);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE((*out)->Append(file.buffer()).ok());
  ASSERT_TRUE((*out)->Close().ok());

  // The whole legacy log decodes with epoch 0 — none of it is mistaken for
  // corruption and truncated away.
  auto recovery = storage::Wal::Recover(Fs::Default(), path);
  ASSERT_TRUE(recovery.ok()) << recovery.status();
  EXPECT_EQ(recovery->dropped_bytes, 0u);
  ASSERT_EQ(recovery->records.size(), 2u);
  const storage::WalRecord& ins = recovery->records[0];
  EXPECT_EQ(ins.type, storage::WalRecordType::kInsert);
  EXPECT_EQ(ins.table, "items");
  EXPECT_EQ(ins.row_id, 7);
  EXPECT_EQ(ins.epoch, 0);
  ASSERT_EQ(ins.values.size(), 2u);
  EXPECT_EQ(ins.values[0].AsString(), "legacy");
  EXPECT_EQ(ins.values[1].AsInt64(), 42);
  EXPECT_EQ(recovery->records[1].type, storage::WalRecordType::kDelete);
  EXPECT_EQ(recovery->records[1].epoch, 0);

  // And epoch-0 mutations still encode in exactly that layout, so an
  // unreplicated deployment's log stays byte-identical to the old format.
  storage::WalRecord ins_rec{"items", 7, ItemRow("legacy", 42)};
  EXPECT_EQ(ins_rec.Encode(), insert.buffer());
  EXPECT_EQ(storage::WalRecord::Delete("items", 7).Encode(), del.buffer());
}

TEST_F(DurabilityTest, WalEpochStampedRecordsRoundTrip) {
  storage::WalRecord ins{"items", 9, ItemRow("stamped", 5)};
  ins.epoch = 3;
  auto decoded = storage::WalRecord::Decode(ins.Encode());
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // Decode normalizes the stamped wire tag back to the plain record kind.
  EXPECT_EQ(decoded->type, storage::WalRecordType::kInsert);
  EXPECT_EQ(decoded->epoch, 3);
  EXPECT_EQ(decoded->table, "items");
  EXPECT_EQ(decoded->row_id, 9);
  ASSERT_EQ(decoded->values.size(), 2u);
  EXPECT_EQ(decoded->values[0].AsString(), "stamped");

  storage::WalRecord del = storage::WalRecord::Delete("items", 9);
  del.epoch = 12;
  // The stamped encoding carries a distinct tag, so a pre-replication
  // reader fails loudly (unknown type) instead of silently misparsing.
  EXPECT_EQ(del.Encode()[0],
            static_cast<uint8_t>(storage::WalRecordType::kEpochDelete));
  auto ddecoded = storage::WalRecord::Decode(del.Encode());
  ASSERT_TRUE(ddecoded.ok()) << ddecoded.status();
  EXPECT_EQ(ddecoded->type, storage::WalRecordType::kDelete);
  EXPECT_EQ(ddecoded->epoch, 12);
}

// ---------- DurableCatalog ----------

TEST_F(DurabilityTest, DurableCatalogPersistsAcrossReopen) {
  const std::string base = Path("db");
  {
    auto dc = storage::DurableCatalog::Open(base);
    ASSERT_TRUE(dc.ok());
    EXPECT_FALSE(dc->recovered_from_disk());
    ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
    for (int i = 1; i <= 10; ++i) {
      auto id = dc->Insert("items", ItemRow("it" + std::to_string(i), i));
      ASSERT_TRUE(id.ok());
      EXPECT_EQ(*id, i);
    }
  }
  auto dc = storage::DurableCatalog::Open(base);
  ASSERT_TRUE(dc.ok());
  EXPECT_TRUE(dc->recovered_from_disk());
  EXPECT_EQ(dc->replayed_records(), 10u);
  storage::Table* items = dc->catalog().GetTable("items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->size(), 10u);
  auto row = items->Get(7);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsString(), "it7");
  // Ids keep counting from where they left off.
  auto next = dc->Insert("items", ItemRow("post", 0));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 11);
}

TEST_F(DurabilityTest, EmptyBasePathIsRefusedAndCreatesNoFile) {
  // An empty base path names the files `.snapshot`, `.wal` and
  // `.broadcast` themselves, so every store opened that way would share
  // them.
  storage::DurableCatalogOptions options;
  options.fs = &mem_fs_;
  auto dc = storage::DurableCatalog::Open("", options);
  ASSERT_FALSE(dc.ok());
  EXPECT_EQ(dc.status().code(), StatusCode::kInvalidArgument);
  auto tvdp = platform::Tvdp::Open("", options);
  ASSERT_FALSE(tvdp.ok());
  EXPECT_EQ(tvdp.status().code(), StatusCode::kInvalidArgument);
  for (const char* file :
       {".snapshot", ".snapshot.tmp", ".wal", ".broadcast"}) {
    EXPECT_FALSE(mem_fs_.Exists(file)) << file;
  }
}

TEST_F(DurabilityTest, PowerCutSweepRecoversExactlyTheCommittedPrefix) {
  for (const auto& [name, base_fs] : BaseFileSystems()) {
    SCOPED_TRACE(name);
    const std::string base = Path("db");
    const int kRecords = 8;
    FaultInjectingFs fs(base_fs);
    storage::DurableCatalogOptions options;
    options.fs = &fs;
    // Build a store with kRecords committed inserts and remember the WAL
    // frame boundaries (= number of records durable at each prefix length).
    std::vector<uint64_t> frame_end;  // frame_end[i] = bytes after record i+1
    {
      auto dc = storage::DurableCatalog::Open(base, options);
      ASSERT_TRUE(dc.ok());
      ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
      for (int i = 1; i <= kRecords; ++i) {
        ASSERT_TRUE(
            dc->Insert("items", ItemRow("r" + std::to_string(i), i)).ok());
        frame_end.push_back(dc->wal_size_bytes());
      }
    }
    const std::string wal = base + ".wal";
    const std::string wal_copy = Path("wal.pristine");
    CopyFile(fs, wal, wal_copy);
    auto full_size = fs.FileSize(wal);
    ASSERT_TRUE(full_size.ok());

    // Cut the log at EVERY byte offset: recovery must yield exactly the
    // records whose frames are fully inside the kept prefix — never fewer,
    // never a torn record, never a crash.
    for (uint64_t cut = 0; cut <= *full_size; ++cut) {
      CopyFile(fs, wal_copy, wal);
      ASSERT_TRUE(fs.Truncate(wal, cut).ok());
      size_t expected = 0;
      while (expected < frame_end.size() && frame_end[expected] <= cut) {
        ++expected;
      }
      auto dc = storage::DurableCatalog::Open(base, options);
      ASSERT_TRUE(dc.ok()) << "cut at " << cut << ": " << dc.status();
      storage::Table* items = dc->catalog().GetTable("items");
      ASSERT_NE(items, nullptr);
      ASSERT_EQ(items->size(), expected) << "cut at " << cut;
      for (size_t i = 1; i <= expected; ++i) {
        auto row = items->Get(static_cast<int64_t>(i));
        ASSERT_TRUE(row.ok()) << "cut at " << cut << " row " << i;
        ASSERT_EQ((**row)[1].AsString(), "r" + std::to_string(i));
      }
      ASSERT_FALSE(items->Exists(static_cast<int64_t>(expected) + 1))
          << "cut at " << cut;
    }
  }
}

TEST_F(DurabilityTest, SnapshotLoadFailsCleanlyOnMissingEmptyAndTruncated) {
  // Missing file.
  auto missing = storage::Catalog::LoadFromFile(Path("nope.snapshot"));
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIOError);

  // Empty file.
  const std::string empty_path = Path("empty.snapshot");
  {
    auto f = Fs::Default()->OpenWritable(empty_path, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  auto empty = storage::Catalog::LoadFromFile(empty_path);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kIOError);

  // Truncated at every prefix length of a real snapshot.
  storage::Catalog catalog = MakeItemsCatalog();
  ASSERT_TRUE(catalog.Insert("items", ItemRow("x", 1)).ok());
  const std::string snap = Path("real.snapshot");
  ASSERT_TRUE(catalog.SaveToFile(snap).ok());
  auto bytes = Fs::Default()->ReadAll(snap);
  ASSERT_TRUE(bytes.ok());
  for (size_t len = 0; len < bytes->size(); ++len) {
    std::vector<uint8_t> prefix(bytes->begin(),
                                bytes->begin() + static_cast<long>(len));
    auto truncated = storage::Catalog::Deserialize(prefix);
    ASSERT_FALSE(truncated.ok()) << "prefix length " << len;
    ASSERT_EQ(truncated.status().code(), StatusCode::kIOError);
  }
  EXPECT_TRUE(storage::Catalog::LoadFromFile(snap).ok());
}

TEST_F(DurabilityTest, TransientIoErrorRollsBackAndStaysConsistent) {
  const std::string base = Path("db");
  FaultInjectingFs fault_fs(Fs::Default());
  storage::DurableCatalogOptions options;
  options.fs = &fault_fs;
  auto dc = storage::DurableCatalog::Open(base, options);
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
  ASSERT_TRUE(dc->Insert("items", ItemRow("good", 1)).ok());

  fault_fs.InjectErrors(1);
  auto failed = dc->Insert("items", ItemRow("doomed", 2));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);

  // In-memory state rolled back: the doomed row is gone and the id was
  // not burned.
  storage::Table* items = dc->catalog().GetTable("items");
  EXPECT_EQ(items->size(), 1u);
  auto retried = dc->Insert("items", ItemRow("retried", 3));
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(*retried, 2);

  // And a reopen from disk agrees exactly.
  auto reopened = storage::DurableCatalog::Open(base);
  ASSERT_TRUE(reopened.ok());
  storage::Table* reopened_items = reopened->catalog().GetTable("items");
  ASSERT_NE(reopened_items, nullptr);
  EXPECT_EQ(reopened_items->size(), 2u);
  EXPECT_TRUE(reopened_items->Exists(1));
  EXPECT_TRUE(reopened_items->Exists(2));
  auto row = reopened_items->Get(2);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((**row)[1].AsString(), "retried");
}

TEST_F(DurabilityTest, CompactionSnapshotsAndResetsTheWal) {
  const std::string base = Path("db");
  storage::DurableCatalogOptions options;
  options.compaction_threshold_bytes = 256;  // compact every few records
  {
    auto dc = storage::DurableCatalog::Open(base, options);
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
    for (int i = 1; i <= 100; ++i) {
      ASSERT_TRUE(dc->Insert("items", ItemRow("c" + std::to_string(i), i)).ok());
    }
    EXPECT_GT(dc->checkpoints_taken(), 1u);  // bootstrap + >=1 compaction
    EXPECT_LE(dc->wal_size_bytes(), options.compaction_threshold_bytes + 64);
  }
  auto dc = storage::DurableCatalog::Open(base, options);
  ASSERT_TRUE(dc.ok());
  storage::Table* items = dc->catalog().GetTable("items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->size(), 100u);
  for (int i = 1; i <= 100; ++i) ASSERT_TRUE(items->Exists(i));
}

TEST_F(DurabilityTest, CrashBetweenSnapshotAndWalResetIsHarmless) {
  const std::string base = Path("db");
  const std::string wal = base + ".wal";
  std::string stale_wal = Path("stale.wal");
  {
    auto dc = storage::DurableCatalog::Open(base);
    ASSERT_TRUE(dc.ok());
    ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
    for (int i = 1; i <= 5; ++i) {
      ASSERT_TRUE(dc->Insert("items", ItemRow("s" + std::to_string(i), i)).ok());
    }
    CopyFile(*Fs::Default(), wal, stale_wal);
    // Snapshot written, then "crash" before the log reset lands: put the
    // pre-checkpoint WAL back.
    ASSERT_TRUE(dc->Checkpoint().ok());
  }
  CopyFile(*Fs::Default(), stale_wal, wal);
  auto dc = storage::DurableCatalog::Open(base);
  ASSERT_TRUE(dc.ok()) << dc.status();
  // The replayed records were already in the snapshot; dedup keeps exactly
  // one copy of each.
  storage::Table* items = dc->catalog().GetTable("items");
  EXPECT_EQ(items->size(), 5u);
  auto next = dc->Insert("items", ItemRow("after", 9));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 6);
}

// ---------- platform facade durability ----------

TEST_F(DurabilityTest, TvdpReopenRecoversImagesAnnotationsAndIndexes) {
  const std::string base = Path("tvdp");
  const geo::GeoPoint loc{34.02, -118.28};
  {
    auto opened = platform::Tvdp::Open(base);
    ASSERT_TRUE(opened.ok()) << opened.status();
    platform::Tvdp tvdp = std::move(opened).value();
    ASSERT_TRUE(
        tvdp.RegisterClassification("street_cleanliness",
                                    {"clean", "encampment"})
            .ok());
    platform::ImageRecord rec;
    rec.uri = "img://1";
    rec.location = loc;
    rec.captured_at = 1000;
    rec.keywords = {"tent", "sidewalk"};
    auto fov = geo::FieldOfView::Make(loc, 90, 60, 100);
    ASSERT_TRUE(fov.ok());
    rec.fov = *fov;
    auto id = tvdp.IngestImage(rec);
    ASSERT_TRUE(id.ok());
    platform::AnnotationRecord ann;
    ann.classification = "street_cleanliness";
    ann.label = "encampment";
    ann.confidence = 0.95;
    ann.machine = true;
    ASSERT_TRUE(tvdp.AnnotateImage(*id, ann).ok());
    ml::FeatureVector feature{0.5, 0.25, 0.25};
    ASSERT_TRUE(tvdp.StoreFeature(*id, "cnn", feature).ok());
  }

  auto reopened = platform::Tvdp::Open(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  platform::Tvdp tvdp = std::move(reopened).value();
  EXPECT_EQ(tvdp.image_count(), 1u);

  // Annotation registry survived.
  auto label = tvdp.GetLabel(1, "street_cleanliness");
  ASSERT_TRUE(label.ok());
  EXPECT_EQ(*label, "encampment");

  // The feature row survived.
  auto feature = tvdp.GetFeature(1, "cnn");
  ASSERT_TRUE(feature.ok());
  EXPECT_EQ(feature->size(), 3u);

  // Indexes were rebuilt: spatial, textual and categorical all find it.
  auto spatial = tvdp.query().SpatialRange(
      geo::BoundingBox::FromCenterRadius(loc, 500));
  ASSERT_TRUE(spatial.ok());
  EXPECT_EQ(spatial->size(), 1u);
  query::TextualPredicate text;
  text.keywords = {"tent"};
  auto textual = tvdp.query().Textual(text);
  ASSERT_TRUE(textual.ok());
  EXPECT_EQ(textual->size(), 1u);
  auto sites = tvdp.LocationsWithLabel("street_cleanliness", "encampment", 0.5);
  ASSERT_TRUE(sites.ok());
  ASSERT_EQ(sites->size(), 1u);

  // Re-registering the same classification after recovery is a no-op that
  // reuses the persisted ids rather than duplicating rows.
  auto again =
      tvdp.RegisterClassification("street_cleanliness", {"clean"});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(tvdp.catalog()
                .GetTable(storage::tables::kImageContentClassification)
                ->size(),
            1u);

  // New ingests keep working and ids continue.
  platform::ImageRecord rec2;
  rec2.uri = "img://2";
  rec2.location = geo::GeoPoint{34.03, -118.27};
  rec2.captured_at = 2000;
  auto id2 = tvdp.IngestImage(rec2);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ(*id2, 2);
}

/// A corpus covering every indexed row shape: images with and without an
/// FOV; 0, 1 or 3 keyword rows per image, with "street" repeated across
/// rows and multi-word keywords; two feature kinds (the second on every
/// other image); one or two annotations per image.
void BuildRebuildCorpus(platform::Tvdp* tvdp) {
  ASSERT_TRUE(tvdp->RegisterClassification("scene",
                                           {"clean", "dirty", "encampment"})
                  .ok());
  const char* const labels[] = {"clean", "dirty", "encampment"};
  for (int i = 0; i < 30; ++i) {
    platform::ImageRecord rec;
    rec.uri = "img://" + std::to_string(i);
    rec.location = geo::GeoPoint{34.00 + (i / 6) * 0.002,
                                 -118.30 + (i % 6) * 0.002};
    rec.captured_at = 1546300800 + i * 60;
    if (i % 3 != 0) {
      auto fov = geo::FieldOfView::Make(rec.location, (i * 47) % 360, 60,
                                        60 + 5 * i);
      ASSERT_TRUE(fov.ok());
      rec.fov = *fov;
    }
    if (i % 3 == 1) rec.keywords = {"street"};
    if (i % 3 == 2) rec.keywords = {"street", "bulky item", "street corner"};
    auto id = tvdp->IngestImage(rec);
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(tvdp->StoreFeature(*id, "cnn",
                                   {std::cos(i), std::sin(i), (i % 5) * 0.1,
                                    1.0})
                    .ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(tvdp->StoreFeature(*id, "hist",
                                     {static_cast<double>(i % 3),
                                      static_cast<double>(i % 4), 1.0})
                      .ok());
    }
    platform::AnnotationRecord ann;
    ann.classification = "scene";
    ann.label = labels[i % 3];
    ann.confidence = 0.5 + (i % 10) * 0.05;
    ann.machine = true;
    ASSERT_TRUE(tvdp->AnnotateImage(*id, ann).ok());
    if (i % 5 == 0) {
      ann.label = "encampment";
      ann.confidence = 0.6;
      ann.machine = false;
      ASSERT_TRUE(tvdp->AnnotateImage(*id, ann).ok());
    }
  }
}

/// search_datasets and explain_query envelopes over every query family,
/// alone and combined, in a fixed order.
std::vector<std::string> ApiEnvelopes(platform::Tvdp* tvdp) {
  const char* const requests[] = {
      R"({"bbox":[34.0,-118.3,34.005,-118.295]})",
      R"({"bbox":[34.0001,-118.2978,34.0004,-118.2974],"keywords":["street"]})",
      R"({"keywords":["street corner"]})",
      R"({"keywords":["bulky","street"],"keyword_mode":"or","limit":5})",
      R"({"time_begin":1546301100,"time_end":1546302000})",
      R"({"bbox":[34.0,-118.3,34.006,-118.292],"classification":"scene",)"
      R"("label":"encampment","time_begin":1546300800,"time_end":1546301800})",
      R"({"feature":[1,0,0.2,1],"feature_kind":"cnn","k":5})",
      R"({"feature":[0,0,1],"feature_kind":"hist","threshold":1.5})",
      R"({"feature":[1,0,0.2,1],"feature_kind":"cnn","k":5,)"
      R"("keywords":["street"]})",
  };
  platform::ModelRegistry registry;
  platform::ApiService api(tvdp, &registry);
  const std::string key = api.CreateApiKey("rebuild");
  std::vector<std::string> out;
  for (const char* text : requests) {
    auto request = Json::Parse(text);
    EXPECT_TRUE(request.ok()) << text;
    if (!request.ok()) continue;
    for (const char* endpoint : {"search_datasets", "explain_query"}) {
      out.push_back(api.HandleEnvelope(key, endpoint, *request).Dump());
    }
  }
  return out;
}

TEST_F(DurabilityTest, RebuiltEnginesServeByteIdenticalEnvelopes) {
  // (a) A reopen without a checkpoint replays the WAL into an engine that
  // answers exactly like the one that ingested row by row.
  std::vector<std::string> live;
  {
    auto opened = platform::Tvdp::Open(Path("a"));
    ASSERT_TRUE(opened.ok()) << opened.status();
    BuildRebuildCorpus(&*opened);
    live = ApiEnvelopes(&*opened);
  }
  for (size_t i = 0; i < live.size(); i += 2) {
    auto envelope = Json::Parse(live[i]);
    ASSERT_TRUE(envelope.ok());
    EXPECT_EQ((*envelope)["status"].AsString(), "ok") << live[i];
    EXPECT_GT((*envelope)["data"]["count"].AsInt(), 0) << live[i];
  }
  {
    auto reopened = platform::Tvdp::Open(Path("a"));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(ApiEnvelopes(&*reopened), live);
  }

  // (b) The same after RemoveImages rebuilt the live engine's indexes and
  // one more image was indexed on top of the rebuild.
  std::vector<std::string> removed;
  {
    auto opened = platform::Tvdp::Open(Path("b"));
    ASSERT_TRUE(opened.ok()) << opened.status();
    BuildRebuildCorpus(&*opened);
    ASSERT_TRUE(opened->RemoveImages({2, 9, 16, 25}).ok());
    platform::ImageRecord rec;
    rec.uri = "img://late";
    rec.location = geo::GeoPoint{34.003, -118.297};
    rec.captured_at = 1546301000;
    rec.keywords = {"street corner"};
    auto fov = geo::FieldOfView::Make(rec.location, 200, 90, 120);
    ASSERT_TRUE(fov.ok());
    rec.fov = *fov;
    auto id = opened->IngestImage(rec);
    ASSERT_TRUE(id.ok()) << id.status();
    ASSERT_TRUE(opened->StoreFeature(*id, "cnn", {1, 0, 0.2, 1}).ok());
    removed = ApiEnvelopes(&*opened);
  }
  EXPECT_NE(removed, live);
  auto reopened = platform::Tvdp::Open(Path("b"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(ApiEnvelopes(&*reopened), removed);
}

TEST_F(DurabilityTest, MismatchedFeatureDimensionWritesNothing) {
  // The first "cnn" vector fixes the kind at 16-d. An 8-d vector, through
  // the facade or through add_data, must be refused before it is logged:
  // a stored row the LSH cannot take would fail every later reindex
  // (deletes) and every Open of the log.
  const std::string base = Path("tvdp");
  const geo::BoundingBox everywhere =
      geo::BoundingBox::FromCorners({33.9, -118.4}, {34.1, -118.2});
  {
    auto opened = platform::Tvdp::Open(base);
    ASSERT_TRUE(opened.ok()) << opened.status();
    platform::Tvdp& tvdp = *opened;
    std::vector<int64_t> ids;
    for (int i = 0; i < 3; ++i) {
      platform::ImageRecord rec;
      rec.uri = "img://" + std::to_string(i);
      rec.location = geo::GeoPoint{34.0 + i * 0.001, -118.3};
      rec.captured_at = 10 * (i + 1);
      auto id = tvdp.IngestImage(rec);
      ASSERT_TRUE(id.ok()) << id.status();
      ids.push_back(*id);
    }
    ASSERT_TRUE(tvdp.StoreFeature(ids[0], "cnn", ml::FeatureVector(16, 0.25))
                    .ok());
    const storage::Table* features =
        tvdp.catalog().GetTable(storage::tables::kImageVisualFeatures);
    ASSERT_EQ(features->size(), 1u);

    Status direct = tvdp.StoreFeature(ids[1], "cnn", ml::FeatureVector(8, 0.5));
    EXPECT_EQ(direct.code(), StatusCode::kInvalidArgument) << direct;
    EXPECT_EQ(features->size(), 1u);

    // add_data stores the image, then refuses its feature.
    platform::ModelRegistry registry;
    platform::ApiService api(&tvdp, &registry);
    const std::string key = api.CreateApiKey("dims");
    auto request = Json::Parse(
        R"({"lat":34.01,"lon":-118.3,"captured_at":40,)"
        R"("features":{"cnn":[1,2,3,4,5,6,7,8]}})");
    ASSERT_TRUE(request.ok());
    auto added = api.HandleRequest(key, "add_data", *request);
    ASSERT_FALSE(added.ok());
    EXPECT_EQ(added.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(features->size(), 1u);
    EXPECT_EQ(tvdp.image_count(), 4u);

    // A delete reindexes every table; the three survivors stay queryable.
    ASSERT_TRUE(tvdp.RemoveImages({ids[2]}).ok());
    auto temporal = tvdp.query().Temporal(0, 100);
    ASSERT_TRUE(temporal.ok()) << temporal.status();
    EXPECT_EQ(temporal->size(), 3u);
    auto spatial = tvdp.query().SpatialRange(everywhere);
    ASSERT_TRUE(spatial.ok()) << spatial.status();
    EXPECT_EQ(spatial->size(), 3u);
  }

  auto reopened = platform::Tvdp::Open(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->image_count(), 3u);
  EXPECT_EQ(reopened->catalog()
                .GetTable(storage::tables::kImageVisualFeatures)
                ->size(),
            1u);
  auto temporal = reopened->query().Temporal(0, 100);
  ASSERT_TRUE(temporal.ok()) << temporal.status();
  EXPECT_EQ(temporal->size(), 3u);
  auto spatial = reopened->query().SpatialRange(everywhere);
  ASSERT_TRUE(spatial.ok()) << spatial.status();
  EXPECT_EQ(spatial->size(), 3u);
}

TEST_F(DurabilityTest, TvdpIngestHitsIoErrorAndStaysUsable) {
  const std::string base = Path("tvdp");
  FaultInjectingFs fault_fs(Fs::Default());
  storage::DurableCatalogOptions options;
  options.fs = &fault_fs;
  auto opened = platform::Tvdp::Open(base, options);
  ASSERT_TRUE(opened.ok()) << opened.status();
  platform::Tvdp tvdp = std::move(opened).value();

  platform::ImageRecord good;
  good.uri = "img://ok";
  good.location = geo::GeoPoint{34.0, -118.0};
  good.captured_at = 1;
  ASSERT_TRUE(tvdp.IngestImage(good).ok());

  fault_fs.InjectErrors(1);
  platform::ImageRecord doomed;
  doomed.uri = "img://doomed";
  doomed.location = geo::GeoPoint{34.1, -118.1};
  doomed.captured_at = 2;
  auto failed = tvdp.IngestImage(doomed);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);

  // The platform is still fully usable afterwards...
  EXPECT_EQ(tvdp.image_count(), 1u);
  platform::ImageRecord next;
  next.uri = "img://next";
  next.location = geo::GeoPoint{34.2, -118.2};
  next.captured_at = 3;
  ASSERT_TRUE(tvdp.IngestImage(next).ok());

  // ...and a reopen sees only the committed ingests, consistently.
  auto reopened = platform::Tvdp::Open(base);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened->image_count(), 2u);
  const storage::Table* images =
      reopened->catalog().GetTable(storage::tables::kImages);
  auto by_uri = images->FindBy("uri", Value(std::string("img://doomed")));
  ASSERT_TRUE(by_uri.ok());
  EXPECT_TRUE(by_uri->empty());
}

TEST_F(DurabilityTest, CompactionRetriesThroughTransientFaults) {
  const std::string base = Path("db");
  FaultInjectingFs fault_fs(Fs::Default());
  storage::DurableCatalogOptions options;
  options.fs = &fault_fs;
  options.sync_on_commit = false;       // an insert is exactly 2 appends
  options.compaction_threshold_bytes = 0;  // every insert compacts
  auto dc = storage::DurableCatalog::Open(base, options);
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
  ASSERT_TRUE(dc->Insert("items", ItemRow("warm", 1)).ok());
  size_t checkpoints_before = dc->checkpoints_taken();
  int64_t faults_before = fault_fs.injected_faults();

  // Let the insert's own WAL commit (frame + payload appends) through, then
  // fail the first two compaction attempts at the snapshot write; the third
  // retry must succeed.
  fault_fs.InjectErrorsAfter(/*skip=*/2, /*n=*/2);
  auto inserted = dc->Insert("items", ItemRow("compacted", 2));
  ASSERT_TRUE(inserted.ok()) << inserted.status();
  EXPECT_EQ(fault_fs.injected_faults() - faults_before, 2);
  EXPECT_EQ(dc->checkpoints_taken(), checkpoints_before + 1);
  EXPECT_EQ(dc->wal_size_bytes(), 0u);  // compaction reset the log

  // A reopen agrees with memory.
  auto reopened = storage::DurableCatalog::Open(base);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->catalog().GetTable("items")->size(), 2u);
}

TEST_F(DurabilityTest, CompactionStaysBestEffortWhenRetryBudgetRunsOut) {
  const std::string base = Path("db");
  FaultInjectingFs fault_fs(Fs::Default());
  storage::DurableCatalogOptions options;
  options.fs = &fault_fs;
  options.sync_on_commit = false;
  options.compaction_threshold_bytes = 0;
  auto dc = storage::DurableCatalog::Open(base, options);
  ASSERT_TRUE(dc.ok());
  ASSERT_TRUE(dc->Bootstrap(MakeItemsCatalog()).ok());
  size_t checkpoints_before = dc->checkpoints_taken();

  // All three attempts (the default budget) fail: the insert still commits
  // — compaction is best-effort, the record is already durable in the WAL.
  fault_fs.InjectErrorsAfter(/*skip=*/2, /*n=*/3);
  ASSERT_TRUE(dc->Insert("items", ItemRow("logged", 1)).ok());
  EXPECT_EQ(dc->checkpoints_taken(), checkpoints_before);
  EXPECT_GT(dc->wal_size_bytes(), 0u);  // the record is still in the log

  // The next threshold cross compacts normally once the disk heals.
  ASSERT_TRUE(dc->Insert("items", ItemRow("healed", 2)).ok());
  EXPECT_EQ(dc->checkpoints_taken(), checkpoints_before + 1);
  EXPECT_EQ(dc->wal_size_bytes(), 0u);

  auto reopened = storage::DurableCatalog::Open(base);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->catalog().GetTable("items")->size(), 2u);
}

}  // namespace
}  // namespace tvdp
