// The framing suite for both framed-file kinds — analyzer snapshots
// (fleet partials and tenant snapshots share that kind) and
// parsed-bundle cache entries.  Both go through snapshot.hpp's one
// writer and one reader, so one table of damages covers both: every
// damage a file can take on disk must be a loud rejection, never a
// silent load.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFingerprint = 0x1122334455667788ull;

struct KindCase {
  const char* name;
  FramedKind kind;
  FramedKind other;
};

const KindCase kKinds[] = {
    {"snapshot", kSnapshotFile, cache::kBundleCacheFile},
    {"bundle-cache", cache::kBundleCacheFile, kSnapshotFile},
};

std::vector<std::uint8_t> Payload() {
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  return payload;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "framed_file_test_" + name;
}

void Write(const std::string& path, const FramedKind& kind,
           std::uint64_t fingerprint = kFingerprint) {
  const std::vector<std::uint8_t> payload = Payload();
  ASSERT_TRUE(WriteFramedFile(path, kind, {payload}, fingerprint).ok());
}

void XorByte(const std::string& path, std::streamoff offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(offset);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5A);
  f.seekp(offset);
  f.write(&byte, 1);
}

std::vector<std::uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

TEST(FramedFileTest, HeaderLayoutIsPinned) {
  // magic | u32 version | u32 CRC | u64 size | u64 fingerprint, all LE:
  // the bytes snapshots and cache entries have always had on disk.  The
  // version is each kind's own (snapshot 2, bundle cache 5).
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  std::array<std::uint8_t, 24> tail = {
      0,    0,    0,    0,                           // version, per kind
      0x1D, 0x80, 0xBC, 0x55,                        // CRC-32 of {1,2,3}
      3,    0,    0,    0,    0,    0,    0,    0,   // payload size
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11};
  const std::uint8_t versions[] = {2, 5};
  static_assert(std::size(versions) == std::size(kKinds));
  for (std::size_t i = 0; i < std::size(kKinds); ++i) {
    const KindCase& k = kKinds[i];
    SCOPED_TRACE(k.name);
    EXPECT_EQ(k.kind.version, versions[i]);
    tail[0] = versions[i];
    const std::string path = TempPath(std::string("layout_") + k.name);
    auto written = WriteFramedFile(path, k.kind, {payload}, kFingerprint);
    ASSERT_TRUE(written.ok()) << written.status().ToString();
    EXPECT_EQ(*written, kFramedHeaderSize + payload.size());
    std::vector<std::uint8_t> expected(k.kind.magic.begin(),
                                       k.kind.magic.end());
    expected.insert(expected.end(), tail.begin(), tail.end());
    expected.insert(expected.end(), payload.begin(), payload.end());
    EXPECT_EQ(FileBytes(path), expected);
    fs::remove(path);
  }
  EXPECT_EQ(std::string(kSnapshotFile.magic.begin(),
                        kSnapshotFile.magic.end()),
            std::string("LDSNAP\x1A", 7) + '\0');
  EXPECT_EQ(std::string(cache::kBundleCacheFile.magic.begin(),
                        cache::kBundleCacheFile.magic.end()),
            "LDPBCHE1");
}

TEST(FramedFileTest, PartsConcatenateIntoOnePayload) {
  const std::vector<std::uint8_t> a = {9, 8};
  const std::vector<std::uint8_t> b;
  const std::vector<std::uint8_t> c = {7, 6, 5, 4, 3, 2, 1, 0, 255};
  for (const KindCase& k : kKinds) {
    SCOPED_TRACE(k.name);
    const std::string path = TempPath(std::string("parts_") + k.name);
    ASSERT_TRUE(WriteFramedFile(path, k.kind, {a, b, c}, kFingerprint).ok());
    auto file = OpenFramedFile(path, k.kind, kFingerprint);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_EQ(std::vector<std::uint8_t>(file->payload.begin(),
                                        file->payload.end()),
              (std::vector<std::uint8_t>{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255}));
    EXPECT_EQ(file->fingerprint, kFingerprint);
    // A whole-buffer write of the same bytes is the same file.
    const std::string whole = path + ".whole";
    const std::vector<std::uint8_t> all = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255};
    ASSERT_TRUE(WriteFramedFile(whole, k.kind, {all}, kFingerprint).ok());
    EXPECT_EQ(FileBytes(whole), FileBytes(path));
    fs::remove(path);
    fs::remove(whole);
  }
}

struct Damage {
  const char* name;
  /// Leaves a damaged file at `path` for a loader of `k`.
  std::function<void(const std::string& path, const KindCase& k)> make;
  /// Substring of the rejection message.
  const char* why;
};

const Damage kDamages[] = {
    {"torn",
     [](const std::string& path, const KindCase& k) {
       Write(path, k.kind);
       fs::resize_file(path, kFramedHeaderSize + 50);
     },
     "torn"},
    {"payload bit-flip",
     [](const std::string& path, const KindCase& k) {
       Write(path, k.kind);
       XorByte(path, kFramedHeaderSize + 50);
     },
     "CRC"},
    {"other kind's magic",
     [](const std::string& path, const KindCase& k) {
       Write(path, k.other);
     },
     "magic"},
    {"stale version",
     [](const std::string& path, const KindCase& k) {
       Write(path, FramedKind{k.kind.magic, k.kind.version + 1});
     },
     "version"},
    {"foreign fingerprint",
     [](const std::string& path, const KindCase& k) {
       Write(path, k.kind, kFingerprint + 1);
     },
     "fingerprint"},
    {"shorter than the header",
     [](const std::string& path, const KindCase& k) {
       Write(path, k.kind);
       fs::resize_file(path, kFramedHeaderSize - 1);
     },
     "shorter"},
};

TEST(FramedFileTest, RejectsDamagedFilesOfEitherKind) {
  for (const KindCase& k : kKinds) {
    const std::string path = TempPath(std::string("damage_") + k.name);
    Write(path, k.kind);
    ASSERT_TRUE(OpenFramedFile(path, k.kind, kFingerprint).ok());
    for (const Damage& d : kDamages) {
      SCOPED_TRACE(std::string(k.name) + ": " + d.name);
      d.make(path, k);
      auto file = OpenFramedFile(path, k.kind, kFingerprint);
      ASSERT_FALSE(file.ok());
      EXPECT_EQ(file.status().code(), StatusCode::kParseError);
      EXPECT_NE(file.status().message().find(d.why), std::string::npos)
          << file.status().message();
    }
    fs::remove(path);
  }
}

TEST(FramedFileTest, MissingFileIsNotFoundAndFailedWriteLeavesNothing) {
  auto missing = OpenFramedFile(TempPath("absent"), kSnapshotFile);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  const std::string dir = TempPath("no_such_dir");
  fs::remove_all(dir);
  const std::vector<std::uint8_t> payload = {1};
  EXPECT_FALSE(
      WriteFramedFile(dir + "/entry", kSnapshotFile, {payload}, 0).ok());
  EXPECT_FALSE(fs::exists(dir));
}

TEST(FramedFileTest, LoadersRejectTheOtherKind) {
  // A snapshot offered to the bundle cache...
  const std::string cache_dir = TempPath("cross_cache");
  fs::remove_all(cache_dir);
  fs::create_directories(cache_dir);
  const cache::BundleCache bundle_cache(cache_dir);
  const cache::CacheKeys keys{kFingerprint, 1, 2};
  Write(bundle_cache.BundlePath(keys.input_fingerprint), kSnapshotFile);
  auto entry = bundle_cache.Load(keys);
  ASSERT_FALSE(entry.ok());
  EXPECT_EQ(entry.status().code(), StatusCode::kParseError);
  EXPECT_NE(entry.status().message().find("magic"), std::string::npos)
      << entry.status().message();
  fs::remove_all(cache_dir);

  // ...and a cache entry offered to the snapshot store.
  const std::string snap_dir = TempPath("cross_snapshots");
  fs::remove_all(snap_dir);
  fs::create_directories(snap_dir);
  const SnapshotStore store(snap_dir);
  Write(store.PathFor(1), cache::kBundleCacheFile);
  auto loaded = store.LoadLatest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_NE(loaded.status().message().find("1 rejected"), std::string::npos)
      << loaded.status().message();
  fs::remove_all(snap_dir);
}

}  // namespace
}  // namespace ld
