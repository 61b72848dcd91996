// Store directory and manifest: persistence round trips, atomic-index
// semantics, rejection of foreign or damaged manifests, and the cache-key
// digest (sensitivity to every input, hex round trip).
#include "store/store.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qrn/json.h"
#include "sim/fleet.h"
#include "store/cache_key.h"
#include "store/format.h"

namespace qrn::store {
namespace {

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_store_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

void write_text(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out << text;
}

ShardEntry entry_for(std::uint64_t fleet_index, std::uint64_t key) {
    ShardEntry entry;
    entry.fleet_index = fleet_index;
    entry.cache_key = key;
    entry.file = Store::shard_filename(fleet_index, key);
    entry.records = 10 * fleet_index + 1;
    entry.exposure_hours = 100.5 + static_cast<double>(fleet_index);
    return entry;
}

/// Records one row: a run of one.
void record_row(Store& store, const ShardEntry& entry) {
    store.record(std::span(&entry, 1));
}

TEST(Store, FreshDirectoryHasNoManifest) {
    const std::string dir = fresh_dir("fresh");
    const Store store(dir);
    EXPECT_FALSE(store.manifest_found());
    EXPECT_TRUE(store.entries().empty());
    EXPECT_EQ(store.find(0), nullptr);
    // Opening is not recording: it creates neither the directory nor a
    // manifest, so a read-only command on a mistyped path leaves nothing.
    EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(Store, RecordPersistsAcrossReopen) {
    const std::string dir = fresh_dir("reopen");
    {
        Store store(dir);
        record_row(store, entry_for(2, 0xABCDEF0123456789ULL));
        record_row(store, entry_for(0, 0x0000000000000042ULL));
    }
    const Store reopened(dir);
    EXPECT_TRUE(reopened.manifest_found());
    const auto entries = reopened.entries();
    ASSERT_EQ(entries.size(), 2u);
    // entries() is sorted by fleet index, independent of record order.
    EXPECT_EQ(entries[0].fleet_index, 0u);
    EXPECT_EQ(entries[1].fleet_index, 2u);
    EXPECT_EQ(entries[1].cache_key, 0xABCDEF0123456789ULL);
    EXPECT_EQ(entries[1].records, 21u);
    EXPECT_DOUBLE_EQ(entries[1].exposure_hours, 102.5);
    const ShardEntry* found = reopened.find(2);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->file, Store::shard_filename(2, 0xABCDEF0123456789ULL));
    EXPECT_EQ(reopened.shard_path(*found), dir + "/" + found->file);
    EXPECT_EQ(reopened.find(1), nullptr);
}

TEST(Store, RecordUpsertsByFleetIndex) {
    const std::string dir = fresh_dir("upsert");
    Store store(dir);
    record_row(store, entry_for(3, 1));
    record_row(store, entry_for(3, 2));
    const auto entries = store.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].cache_key, 2u);
}

/// The manifest a store holding `entries` must write: the JSON writer's
/// own dump of the whole document.
std::string expected_manifest(const std::vector<ShardEntry>& entries) {
    json::Array shards;
    for (const auto& entry : entries) {
        json::Object row;
        row.emplace_back("fleet_index",
                         json::Value(static_cast<std::size_t>(entry.fleet_index)));
        row.emplace_back("file", json::Value(entry.file));
        row.emplace_back("key", json::Value(key_hex(entry.cache_key)));
        row.emplace_back("records", json::Value(static_cast<std::size_t>(entry.records)));
        row.emplace_back("exposure_hours", json::Value(entry.exposure_hours));
        shards.emplace_back(std::move(row));
    }
    json::Object doc;
    doc.emplace_back("kind", json::Value("qrn.store"));
    doc.emplace_back("schema_version", json::Value(1));
    doc.emplace_back("shards", json::Value(std::move(shards)));
    return json::Value(std::move(doc)).dump(2) + "\n";
}

std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Store, ManifestBytesEqualAFullJsonDumpAfterEveryRecord) {
    const std::string dir = fresh_dir("manifest_bytes");
    const auto expect_identical = [&](const Store& store, const char* step) {
        EXPECT_EQ(read_text(store.manifest_path()), expected_manifest(store.entries()))
            << step;
    };
    {
        Store store(dir);
        record_row(store, entry_for(5, 0x5555));
        expect_identical(store, "first row");
        record_row(store, entry_for(1, 0x1111));
        expect_identical(store, "row before an existing one");
        ShardEntry odd = entry_for(3, 0x3333);
        // Escapes in a string value must survive the re-indentation, and a
        // fractional exposure takes the %.17g path of the writer.
        odd.file = "odd \"name\"\twith\nescapes.qrs";
        odd.exposure_hours = 0.1;
        record_row(store, odd);
        expect_identical(store, "row in the middle");
        record_row(store, entry_for(1, 0xABCDEF0123456789ULL));
        expect_identical(store, "overwritten fleet index");
    }
    Store reopened(dir);
    ASSERT_EQ(reopened.entries().size(), 3u);
    EXPECT_EQ(reopened.find(3)->file, "odd \"name\"\twith\nescapes.qrs");
    record_row(reopened, entry_for(0, 0x0));
    expect_identical(reopened, "first record after reopening");
    record_row(reopened, entry_for(5, 0x5556));
    expect_identical(reopened, "overwrite after reopening");
    // A whole run's rows in one call: two new rows and one changed row.
    const std::vector<ShardEntry> run = {entry_for(7, 0x7777), entry_for(2, 0x2222),
                                         entry_for(0, 0x1)};
    reopened.record(run);
    expect_identical(reopened, "multi-row record");
    ASSERT_EQ(reopened.entries().size(), 6u);
    reopened.record(run);
    reopened.record(std::span<const ShardEntry>());
    expect_identical(reopened, "unchanged multi-row record");
}

TEST(Store, EmptyIndexBytesEqualTheJsonWriters) {
    const std::string dir = fresh_dir("empty_index");
    Store store(dir);
    store.record(std::span<const ShardEntry>());
    EXPECT_TRUE(store.manifest_found());
    EXPECT_EQ(read_text(store.manifest_path()), expected_manifest({}));
    EXPECT_NE(read_text(store.manifest_path()).find("\"shards\": []"),
              std::string::npos);
    const Store reopened(dir);
    EXPECT_TRUE(reopened.manifest_found());
    EXPECT_TRUE(reopened.entries().empty());
}

TEST(Store, RecordingUnchangedRowsLeavesTheManifestAlone) {
    const std::string dir = fresh_dir("unchanged");
    const std::vector<ShardEntry> rows = {entry_for(0, 0x10), entry_for(1, 0x11)};
    // Every manifest write renames a fresh temp file into place. A hard
    // link pins the current file's inode (so it cannot be reused), and the
    // manifest is still that file exactly when nothing was written.
    const std::string pin = dir + "/pinned-manifest";
    const auto pin_manifest = [&](const Store& store) {
        std::filesystem::remove(pin);
        std::filesystem::create_hard_link(store.manifest_path(), pin);
    };
    const auto unchanged = [&](const Store& store) {
        return std::filesystem::equivalent(store.manifest_path(), pin);
    };
    {
        Store store(dir);
        for (const auto& row : rows) record_row(store, row);
        pin_manifest(store);
        for (const auto& row : rows) record_row(store, row);
        EXPECT_TRUE(unchanged(store));
    }
    Store reopened(dir);
    for (const auto& row : rows) record_row(reopened, row);
    EXPECT_TRUE(unchanged(reopened));
    // One changed row rewrites the index.
    record_row(reopened, entry_for(1, 0x12));
    EXPECT_FALSE(unchanged(reopened));
    EXPECT_EQ(read_text(reopened.manifest_path()),
              expected_manifest({rows[0], entry_for(1, 0x12)}));
}

TEST(Store, ManifestCountsMustBeExactIntegers) {
    const std::string dir = fresh_dir("exact_counts");
    std::filesystem::create_directories(dir);
    const auto manifest = [](const std::string& fleet_index, const std::string& records) {
        return "{\"kind\": \"qrn.store\", \"schema_version\": 1, \"shards\": "
               "[{\"fleet_index\": " + fleet_index +
               ", \"file\": \"f.qrs\", \"key\": \"0000000000000001\", "
               "\"records\": " + records + ", \"exposure_hours\": 1.0}]}";
    };
    write_text(dir + "/manifest.json", manifest("9007199254740992", "0"));
    EXPECT_NE(Store(dir).find(9007199254740992ULL), nullptr);  // 2^53 is exact
    for (const auto& [fleet_index, records] :
         std::vector<std::pair<std::string, std::string>>{{"1.5", "0"},
                                                          {"-1", "0"},
                                                          {"1e30", "0"},
                                                          {"9007199254740994", "0"},
                                                          {"0", "0.5"}}) {
        write_text(dir + "/manifest.json", manifest(fleet_index, records));
        try {
            const Store store(dir);
            ADD_FAILURE() << "accepted fleet_index " << fleet_index << ", records "
                          << records;
        } catch (const StoreError& error) {
            EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent)
                << fleet_index << " " << records;
        }
    }
}

TEST(Store, ShardFilenameIsFixedWidth) {
    EXPECT_EQ(Store::shard_filename(7, 0xABCULL), "fleet-00007-0000000000000abc.qrs");
    EXPECT_EQ(Store::shard_filename(0, 0xFFFFFFFFFFFFFFFFULL),
              "fleet-00000-ffffffffffffffff.qrs");
}

TEST(Store, RejectsAManifestOfAnotherKind) {
    const std::string dir = fresh_dir("kind");
    std::filesystem::create_directories(dir);
    write_text(dir + "/manifest.json",
               "{\"kind\": \"qrn.metrics\", \"schema_version\": 1, \"shards\": []}");
    try {
        const Store store(dir);
        FAIL() << "expected StoreError";
    } catch (const StoreError& error) {
        EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
    }
}

TEST(Store, RejectsUnparseableManifest) {
    const std::string dir = fresh_dir("garbage");
    std::filesystem::create_directories(dir);
    write_text(dir + "/manifest.json", "{not json");
    try {
        const Store store(dir);
        FAIL() << "expected StoreError";
    } catch (const StoreError& error) {
        EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
    }
}

TEST(Store, RejectsManifestEscapingTheDirectory) {
    const std::string dir = fresh_dir("escape");
    std::filesystem::create_directories(dir);
    write_text(dir + "/manifest.json",
               "{\"kind\": \"qrn.store\", \"schema_version\": 1, \"shards\": "
               "[{\"fleet_index\": 0, \"file\": \"../evil.qrs\", \"key\": "
               "\"0000000000000001\", \"records\": 0, \"exposure_hours\": 1.0}]}");
    try {
        const Store store(dir);
        FAIL() << "expected StoreError";
    } catch (const StoreError& error) {
        EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
    }
}

TEST(Store, StrayTempFilesAreReportedSorted) {
    const std::string dir = fresh_dir("stray");
    std::filesystem::create_directories(dir);
    write_text(dir + "/fleet-00001-00000000000000aa.qrs.tmp", "torn");
    write_text(dir + "/fleet-00000-00000000000000bb.qrs.tmp", "torn");
    write_text(dir + "/fleet-00000-00000000000000cc.qrs", "sealed-looking");
    const auto stray = stray_temp_files(dir);
    ASSERT_EQ(stray.size(), 2u);
    EXPECT_EQ(stray[0], "fleet-00000-00000000000000bb.qrs.tmp");
    EXPECT_EQ(stray[1], "fleet-00001-00000000000000aa.qrs.tmp");
}

TEST(KeyHex, RoundTripsAndRejectsAnythingElse) {
    EXPECT_EQ(key_hex(0), "0000000000000000");
    EXPECT_EQ(key_hex(0xDEADBEEF01234567ULL), "deadbeef01234567");
    EXPECT_EQ(key_from_hex("deadbeef01234567"), 0xDEADBEEF01234567ULL);
    for (const std::string bad :
         {"", "123", "deadbeef0123456", "deadbeef012345678", "DEADBEEF01234567",
          "deadbeef0123456g"}) {
        try {
            (void)key_from_hex(bad);
            FAIL() << "accepted '" << bad << "'";
        } catch (const StoreError& error) {
            EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent) << bad;
        }
    }
}

TEST(CacheKey, DeterministicPureFunction) {
    const sim::FleetConfig base;
    EXPECT_EQ(fleet_cache_key(base, 100.0, 3, "digest"),
              fleet_cache_key(base, 100.0, 3, "digest"));
}

TEST(CacheKey, EveryInputChangesTheKey) {
    // A representative field from each mixed struct: if any of these
    // collided, a config edit could silently reuse a stale shard.
    const sim::FleetConfig base;
    std::set<std::uint64_t> keys;
    const auto key_of = [&](const sim::FleetConfig& config, double hours,
                            std::size_t index, std::string_view digest) {
        return fleet_cache_key(config, hours, index, digest);
    };
    keys.insert(key_of(base, 100.0, 0, "digest"));

    const auto expect_fresh = [&](const sim::FleetConfig& config, double hours,
                                  std::size_t index, std::string_view digest,
                                  const char* what) {
        EXPECT_TRUE(keys.insert(key_of(config, hours, index, digest)).second) << what;
    };

    expect_fresh(base, 101.0, 0, "digest", "hours_per_fleet");
    expect_fresh(base, 100.0, 1, "digest", "fleet_index");
    expect_fresh(base, 100.0, 0, "digest2", "inputs_digest");

    sim::FleetConfig config = base;
    config.seed += 1;
    expect_fresh(config, 100.0, 0, "digest", "seed");

    config = base;
    config.odd.allow_rain = !config.odd.allow_rain;
    expect_fresh(config, 100.0, 0, "digest", "odd.allow_rain");

    config = base;
    config.policy.speed_factor += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "policy.speed_factor");

    config = base;
    config.perception.blackout_probability += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "perception.blackout_probability");

    config = base;
    config.detector.near_miss_max_distance_m += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "detector.near_miss_max_distance_m");

    config = base;
    config.faults.brake_degradation_probability += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "faults.brake_degradation_probability");

    config = base;
    config.faults.policy_aware = !config.faults.policy_aware;
    expect_fresh(config, 100.0, 0, "digest", "faults.policy_aware");

    config = base;
    config.secondary.follower_presence += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "secondary.follower_presence");

    config = base;
    config.odd_exit.exit_probability += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "odd_exit.exit_probability");

    config = base;
    config.environment_persistence += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "environment_persistence");
}

TEST(CacheKey, BitLevelDoubleSensitivity) {
    // 0.1 vs the next representable double: different runs, different keys.
    sim::FleetConfig a;
    a.environment_persistence = 0.1;
    sim::FleetConfig b = a;
    b.environment_persistence = std::nextafter(0.1, 1.0);
    EXPECT_NE(fleet_cache_key(a, 100.0, 0, ""), fleet_cache_key(b, 100.0, 0, ""));
}

TEST(KeyHasher, LengthPrefixPreventsAliasing) {
    KeyHasher ab_c;
    ab_c.mix_string("ab");
    ab_c.mix_string("c");
    KeyHasher a_bc;
    a_bc.mix_string("a");
    a_bc.mix_string("bc");
    EXPECT_NE(ab_c.digest(), a_bc.digest());
}

}  // namespace
}  // namespace qrn::store
