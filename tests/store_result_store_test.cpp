/// Robustness tests for the one persistent reuse format (.ocl): round
/// trips, and one corrupt-file corpus read through both readers —
/// ResultStore::load (the record file, with its STO diagnostics) and
/// PatternLibrary::open (what the flows and the daemon call). Every
/// damaged input must load or refuse deterministically (never crash),
/// and torn tails must recover. Runs under ASan/UBSan in CI (label
/// `store`).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "pattern/library.h"
#include "store/record_file.h"
#include "store/result_store.h"
#include "util/check.h"

namespace opckit {
namespace {

using pat::PatternLibrary;
using store::LibraryRecord;
using store::LoadResult;
using store::ResultStore;

constexpr std::uint64_t kFp = 0x1234'5678'9abc'def0ULL;
constexpr std::size_t kHeaderSize = 24;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::filesystem::remove(path);
  return path;
}

/// A record whose window geometry (hence feature vector) is controlled
/// by \p widen and whose payload identity by \p salt.
LibraryRecord sample_record(geom::Coord widen = 0, int salt = 0) {
  LibraryRecord rec;
  rec.tile.window_rects = {geom::Rect(0, 0, 180, 1200),
                           geom::Rect(540, 0, 720 + widen, 1200)};
  rec.tile.own_rects = {geom::Rect(0, 0, 180, 1200)};
  rec.tile.frame = geom::Rect(-800, -800, 1520, 2000);
  rec.tile.orientation = geom::Orientation::kR90;
  rec.tile.solution = {
      geom::Polygon(geom::Rect(-4, -12, 184 + salt, 1212)),
      geom::Polygon({{540, 0}, {720, 0}, {720, 1212}, {540, 1212}})};
  rec.seeds = {{geom::Point{90, 0}, 4 + salt}, {geom::Point{90, 1200}, -6}};
  return rec;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void put_u32(std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i)
    bytes[at + i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFFu);
}

/// A file at \p path with two good records, returned as raw bytes for
/// mutilation.
std::vector<std::uint8_t> good_file_bytes(
    const std::string& path = temp_path("store_good.ocl")) {
  auto store = ResultStore::create(path, kFp);
  store.append(sample_record(0));
  store.append(sample_record(40));
  return file_bytes(path);
}

/// The byte length of a file holding only sample_record(0): where the
/// second record of good_file_bytes() starts.
std::uint64_t one_record_bytes() {
  const std::string path = temp_path("store_one_record.ocl");
  ResultStore::create(path, kFp).append(sample_record(0));
  return std::filesystem::file_size(path);
}

// ---- the corpus: each case damages a good file --------------------------

std::vector<std::uint8_t> wrong_magic(std::vector<std::uint8_t> bytes) {
  bytes[0] = 'X';
  return bytes;
}

std::vector<std::uint8_t> short_header(std::vector<std::uint8_t> bytes) {
  bytes.resize(kHeaderSize / 2);
  return bytes;
}

/// Version 99 behind a re-forged header CRC, so the version check (not
/// the checksum) fires.
std::vector<std::uint8_t> unknown_version(std::vector<std::uint8_t> bytes) {
  bytes[8] = 99;  // version field, little-endian low byte
  put_u32(bytes, kHeaderSize - 4,
          store::store_detail::crc32(bytes.data(), kHeaderSize - 4));
  return bytes;
}

/// A byte flipped inside the first record's payload (after its length).
std::vector<std::uint8_t> flipped_record(std::vector<std::uint8_t> bytes) {
  bytes[kHeaderSize + 4 + 3] ^= 0x40u;
  return bytes;
}

/// An empty file's header plus one record \p payload behind a *valid*
/// CRC — the CRC authenticates bytes, the parser authenticates
/// structure.
std::vector<std::uint8_t> forged_record(
    const std::vector<std::uint8_t>& payload) {
  const std::string path = temp_path("store_forge.ocl");
  ResultStore::create(path, kFp);
  std::vector<std::uint8_t> bytes = file_bytes(path);
  const std::size_t at = bytes.size();
  bytes.resize(at + 4);
  put_u32(bytes, at, static_cast<std::uint32_t>(payload.size()));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  bytes.resize(bytes.size() + 4);
  put_u32(bytes, bytes.size() - 4,
          store::store_detail::crc32(payload.data(), payload.size()));
  return bytes;
}

/// The two readers of the one format.
using Reader = void (*)(const std::string& path);
void load_file(const std::string& path) { ResultStore::load(path, kFp); }
void open_library(const std::string& path) {
  PatternLibrary::open(path, kFp);
}

/// Writes \p bytes, reads them with \p read and expects a refusal that
/// carries \p code and mentions \p words.
void expect_refused(Reader read, const std::vector<std::uint8_t>& bytes,
                    const char* code, const char* words) {
  const std::string path = temp_path("store_corpus.ocl");
  write_bytes(path, bytes);
  try {
    read(path);
    ADD_FAILURE() << words << ": not refused";
  } catch (const util::InputError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(code), std::string::npos) << what;
    EXPECT_NE(what.find(words), std::string::npos) << what;
  }
}

// ---- ResultStore: the record file ---------------------------------------

TEST(ResultStore, RoundTripsRecords) {
  const std::string path = temp_path("store_roundtrip.ocl");
  // An ILT tile is filed without seeds; it round-trips like any other.
  LibraryRecord seedless = sample_record(40);
  seedless.seeds.clear();
  {
    auto store = ResultStore::create(path, kFp);
    store.append(sample_record(0));
    store.append(seedless);
    EXPECT_EQ(store.appended(), 2u);
  }
  const LoadResult loaded = ResultStore::load(path, kFp);
  EXPECT_FALSE(loaded.tail_recovered);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[0], sample_record(0));
  EXPECT_EQ(loaded.records[1], seedless);
  EXPECT_EQ(loaded.valid_bytes, std::filesystem::file_size(path));
}

TEST(ResultStore, EmptyStoreLoadsCleanly) {
  const std::string path = temp_path("store_empty.ocl");
  ResultStore::create(path, kFp);
  const LoadResult loaded = ResultStore::load(path, kFp);
  EXPECT_TRUE(loaded.records.empty());
  EXPECT_FALSE(loaded.tail_recovered);
  EXPECT_EQ(loaded.valid_bytes, kHeaderSize);
}

TEST(ResultStore, AppendToExtendsAfterLoad) {
  const std::string path = temp_path("store_extend.ocl");
  ResultStore::create(path, kFp).append(sample_record(0));
  const LoadResult first = ResultStore::load(path, kFp);
  ResultStore::append_to(path, first.valid_bytes).append(sample_record(40));
  const LoadResult both = ResultStore::load(path, kFp);
  ASSERT_EQ(both.records.size(), 2u);
  EXPECT_EQ(both.records[1], sample_record(40));
}

TEST(ResultStore, RefusesFingerprintMismatch) {
  const std::string path = temp_path("store_fp.ocl");
  ResultStore::create(path, kFp);
  lint::LintReport report;
  EXPECT_THROW(ResultStore::load(path, kFp + 1, &report), util::InputError);
  ASSERT_EQ(report.findings().size(), 1u);
  EXPECT_EQ(report.findings()[0].code, "STO001");
  EXPECT_EQ(report.findings()[0].severity, lint::Severity::kError);
}

TEST(ResultStore, RefusesWrongMagic) {
  expect_refused(load_file, wrong_magic(good_file_bytes()), "STO003",
                 "magic");
}

TEST(ResultStore, RefusesTruncatedHeader) {
  expect_refused(load_file, short_header(good_file_bytes()), "STO003",
                 "too short");
}

TEST(ResultStore, RefusesUnknownVersionWithValidChecksum) {
  expect_refused(load_file, unknown_version(good_file_bytes()), "STO003",
                 "version 99");
}

TEST(ResultStore, RefusesFlippedRecordByte) {
  expect_refused(load_file, flipped_record(good_file_bytes()), "STO004",
                 "checksum");
}

TEST(ResultStore, RefusesMalformedPayloadWithForgedChecksum) {
  // A whole tile blob whose orientation byte is out of range.
  expect_refused(load_file, forged_record({1, 0, 0, 0, 0xEE, 0, 0, 0, 0}),
                 "STO004", "malformed");
}

TEST(ResultStore, RecoversTornTail) {
  const std::string path = temp_path("store_torn.ocl");
  const auto bytes = good_file_bytes(path);
  const std::uint64_t second_start = one_record_bytes();
  // Tear the file inside the second record: each prefix must recover
  // record 1 and report the torn tail as a warning.
  for (std::size_t cut : {second_start + 1, second_start + 5,
                          bytes.size() - 1}) {
    auto torn = bytes;
    torn.resize(cut);
    write_bytes(path, torn);
    lint::LintReport report;
    const LoadResult loaded = ResultStore::load(path, kFp, &report);
    ASSERT_EQ(loaded.records.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(loaded.records[0], sample_record(0));
    EXPECT_TRUE(loaded.tail_recovered);
    EXPECT_EQ(loaded.valid_bytes, second_start);
    ASSERT_EQ(report.findings().size(), 1u);
    EXPECT_EQ(report.findings()[0].code, "STO002");
    EXPECT_EQ(report.findings()[0].severity, lint::Severity::kWarning);
  }
}

TEST(ResultStore, AppendAfterTornTailTruncatesGarbage) {
  const std::string path = temp_path("store_heal.ocl");
  auto bytes = good_file_bytes(path);
  bytes.resize(bytes.size() - 3);  // tear inside the last record
  write_bytes(path, bytes);

  const LoadResult loaded = ResultStore::load(path, kFp);
  ASSERT_TRUE(loaded.tail_recovered);
  ResultStore::append_to(path, loaded.valid_bytes).append(sample_record(80));
  // The healed file has no trace of the torn bytes.
  const LoadResult healed = ResultStore::load(path, kFp);
  EXPECT_FALSE(healed.tail_recovered);
  ASSERT_EQ(healed.records.size(), 2u);
  EXPECT_EQ(healed.records[0], sample_record(0));
  EXPECT_EQ(healed.records[1], sample_record(80));
}

TEST(ResultStore, MissingFileThrows) {
  EXPECT_THROW(ResultStore::load(temp_path("store_nope.ocl"), kFp),
               util::InputError);
  // A directory is not a readable file either.
  EXPECT_THROW(ResultStore::load(::testing::TempDir(), kFp),
               util::InputError);
}

TEST(ResultStore, SyncOnAppendOffByDefault) {
  auto store = ResultStore::create(temp_path("store_nosync.ocl"), kFp);
  EXPECT_FALSE(store.sync_on_append());
  store.append(sample_record(0));
  store.append(sample_record(40));
  EXPECT_EQ(store.appended(), 2u);
  // The default path must never pay for fsync: no syncs were issued.
  EXPECT_EQ(store.synced(), 0u);
}

TEST(ResultStore, SyncOnAppendFsyncsEveryRecord) {
  const std::string path = temp_path("store_sync.ocl");
  {
    auto store = ResultStore::create(path, kFp, /*sync_on_append=*/true);
    EXPECT_TRUE(store.sync_on_append());
    store.append(sample_record(0));
    EXPECT_EQ(store.synced(), 1u);
    store.append(sample_record(40));
    EXPECT_EQ(store.synced(), 2u);
    EXPECT_EQ(store.synced(), store.appended());
  }
  // Continuation handles honor the flag too, counting only their own
  // appends.
  const LoadResult loaded = ResultStore::load(path, kFp);
  ASSERT_EQ(loaded.records.size(), 2u);
  {
    auto store =
        ResultStore::append_to(path, loaded.valid_bytes, /*sync=*/true);
    EXPECT_TRUE(store.sync_on_append());
    EXPECT_EQ(store.synced(), 0u);
    store.append(sample_record(80));
    EXPECT_EQ(store.synced(), 1u);
  }
  const LoadResult all = ResultStore::load(path, kFp);
  ASSERT_EQ(all.records.size(), 3u);
  EXPECT_EQ(all.records[2], sample_record(80));
}

// ---- PatternLibrary: the same file through open() -----------------------

TEST(PatternLibrary, RoundTripsThroughDisk) {
  const std::string path = temp_path("lib_roundtrip.ocl");
  {
    auto lib = PatternLibrary::open(path, kFp);
    EXPECT_EQ(lib.size(), 0u);
    EXPECT_TRUE(lib.insert(sample_record(0)));
    EXPECT_TRUE(lib.insert(sample_record(40)));
    // Duplicate insert neither grows the index nor the file.
    EXPECT_FALSE(lib.insert(sample_record(0)));
  }
  const std::uint64_t size_after = std::filesystem::file_size(path);
  auto lib = PatternLibrary::open(path, kFp);
  EXPECT_EQ(std::filesystem::file_size(path), size_after);
  EXPECT_FALSE(lib.tail_recovered());
  ASSERT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.record(0), sample_record(0));
  EXPECT_EQ(lib.record(1), sample_record(40));
  // The index is rebuilt from geometry on load: retrieval still works.
  const auto near = lib.nearest(
      pat::feature_of(sample_record(44).tile.window_rects), 0.5);
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(near->index, 1u);
}

TEST(PatternLibrary, ReopenAppendsAfterExistingRecords) {
  const std::string path = temp_path("lib_extend.ocl");
  EXPECT_TRUE(PatternLibrary::open(path, kFp).insert(sample_record(0)));
  {
    auto lib = PatternLibrary::open(path, kFp);
    EXPECT_EQ(lib.size(), 1u);
    // Reopen dedups against loaded entries too.
    EXPECT_FALSE(lib.insert(sample_record(0)));
    EXPECT_TRUE(lib.insert(sample_record(40)));
  }
  auto lib = PatternLibrary::open(path, kFp);
  ASSERT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.record(1), sample_record(40));
}

TEST(PatternLibrary, RefusesFingerprintMismatch) {
  const std::string path = temp_path("lib_fp.ocl");
  ResultStore::create(path, kFp + 1);
  expect_refused(open_library, file_bytes(path), "STO001",
                 "different process setup");
}

TEST(PatternLibrary, RefusesWrongMagic) {
  expect_refused(open_library, wrong_magic(good_file_bytes()), "STO003",
                 "magic");
}

TEST(PatternLibrary, RefusesTruncatedHeader) {
  expect_refused(open_library, short_header(good_file_bytes()), "STO003",
                 "too short");
}

TEST(PatternLibrary, RefusesCorruptHeaderChecksum) {
  auto bytes = good_file_bytes();
  bytes[12] ^= 0x01u;  // flip a fingerprint byte without re-forging CRC
  expect_refused(open_library, bytes, "STO003", "checksum");
}

TEST(PatternLibrary, RefusesUnknownVersionWithValidChecksum) {
  expect_refused(open_library, unknown_version(good_file_bytes()), "STO003",
                 "version 99");
}

TEST(PatternLibrary, RefusesFlippedRecordByte) {
  expect_refused(open_library, flipped_record(good_file_bytes()), "STO004",
                 "checksum");
}

TEST(PatternLibrary, RefusesMalformedPayloadWithForgedChecksum) {
  // One byte cannot hold the tile blob's length.
  expect_refused(open_library, forged_record({0xEE}), "STO004",
                 "malformed");
}

TEST(PatternLibrary, RecoversTornTailAtEveryCut) {
  const std::string path = temp_path("lib_torn.ocl");
  const auto bytes = good_file_bytes(path);
  const std::uint64_t one_record = one_record_bytes();
  ASSERT_GT(one_record, kHeaderSize);
  ASSERT_LT(one_record, bytes.size());

  for (std::size_t cut : {one_record + 1, one_record + 5,
                          bytes.size() - 1}) {
    auto torn = bytes;
    torn.resize(cut);
    write_bytes(path, torn);
    auto lib = PatternLibrary::open(path, kFp);
    ASSERT_EQ(lib.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(lib.record(0), sample_record(0));
    EXPECT_TRUE(lib.tail_recovered()) << "cut=" << cut;
    // open() truncates the torn bytes so appends land after the last
    // whole record.
    EXPECT_EQ(std::filesystem::file_size(path), one_record);
  }
}

TEST(PatternLibrary, AppendAfterTornTailHealsFile) {
  const std::string path = temp_path("lib_heal.ocl");
  auto bytes = good_file_bytes(path);
  bytes.resize(bytes.size() - 3);  // tear inside the last record
  write_bytes(path, bytes);
  {
    auto lib = PatternLibrary::open(path, kFp);
    ASSERT_TRUE(lib.tail_recovered());
    EXPECT_TRUE(lib.insert(sample_record(80)));
  }
  // The healed file has no trace of the torn bytes.
  auto lib = PatternLibrary::open(path, kFp);
  EXPECT_FALSE(lib.tail_recovered());
  ASSERT_EQ(lib.size(), 2u);
  EXPECT_EQ(lib.record(0), sample_record(0));
  EXPECT_EQ(lib.record(1), sample_record(80));
}

}  // namespace
}  // namespace opckit
