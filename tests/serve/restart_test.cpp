// Restart of the serve Service from its sealed shards alone. The shards are
// the truth and `manifest.json` is an index written once, at drain, so a
// service that dies between a seal and the next index write - or finds its
// index deleted or short of a row - must resume at the sequence number its
// shards reach. A file that carries a shard's name but fails its checksum,
// or holds another fleet's shard, must fail startup instead of silently
// ending the sequence there.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrn/json.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "store/format.h"

namespace {

using namespace qrn;
using namespace qrn::serve;

constexpr std::uint64_t kShardRoll = 64;
constexpr std::uint64_t kShards = 3;
constexpr double kExposurePerRoll = 8.0;

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out << bytes;
}

/// Sealed shard files in `dir`, sorted by name (= by sequence number).
std::vector<std::string> shard_files(const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
        if (item.path().extension() == ".qrs") out.push_back(item.path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

class ServeRestart : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = ::testing::TempDir() + "qrn_serve_restart_" + info->name();
        std::filesystem::remove_all(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    [[nodiscard]] std::unique_ptr<Service> open() const {
        ServiceConfig config;
        config.store_dir = dir_;
        config.shard_roll = kShardRoll;
        return std::make_unique<Service>(RiskNorm::paper_example(),
                                         IncidentTypeSet::paper_vru_example(), config);
    }

    /// Streams `rolls` whole shards' worth of records, starting at the
    /// record the sealed prefix ends at, so every roll seals one shard.
    static void stream_rolls(Service& service, std::uint64_t rolls) {
        const std::uint64_t first = service.status().records_sealed;
        for (std::uint64_t r = 0; r < rolls; ++r) {
            ClassifyRequest request;
            request.exposure_hours = kExposurePerRoll;
            for (std::uint64_t i = 0; i < kShardRoll; ++i) {
                request.incidents.push_back(stream_incident(first + r * kShardRoll + i));
            }
            (void)service.classify_batch(request);
        }
    }

    /// Seals kShards shards and destroys the service without finish():
    /// the crash window between a seal and the index write. Returns the
    /// status the dead service last reported.
    [[nodiscard]] StatusReply seal_and_crash() const {
        auto service = open();
        stream_rolls(*service, kShards);
        const StatusReply status = service->status();
        EXPECT_EQ(status.shards_sealed, kShards);
        EXPECT_EQ(status.records_pending, 0u);
        return status;
    }

    /// Seals kShards shards and drains; returns the index bytes.
    [[nodiscard]] std::string seal_and_drain() const {
        auto service = open();
        stream_rolls(*service, kShards);
        service->finish();
        return read_bytes(manifest_path());
    }

    [[nodiscard]] std::string manifest_path() const { return dir_ + "/manifest.json"; }

    std::string dir_;
};

TEST_F(ServeRestart, ConstructionWritesNoFile) {
    { auto service = open(); }
    ASSERT_TRUE(std::filesystem::is_directory(dir_));
    EXPECT_TRUE(std::filesystem::is_empty(dir_));
}

TEST_F(ServeRestart, SealsWithoutAnIndexWriteSurviveACrash) {
    const StatusReply before = seal_and_crash();
    // No drain, so no index: the shards alone carry the sealed prefix.
    EXPECT_FALSE(std::filesystem::exists(manifest_path()));
    auto restarted = open();
    EXPECT_EQ(restarted->status(), before);
    EXPECT_EQ(restarted->status().records_sealed, kShards * kShardRoll);

    // Appending resumes at the next sequence number, not over shard 0.
    stream_rolls(*restarted, 1);
    EXPECT_EQ(restarted->status().shards_sealed, kShards + 1);
    EXPECT_EQ(shard_files(dir_).size(), kShards + 1);
}

TEST_F(ServeRestart, DeletedIndexIsRebuiltFromTheShards) {
    const std::string index = seal_and_drain();
    const StatusReply before = open()->status();
    std::filesystem::remove(manifest_path());

    auto restarted = open();
    EXPECT_EQ(restarted->status(), before);
    EXPECT_EQ(restarted->status().shards_sealed, kShards);
    restarted->finish();
    EXPECT_EQ(read_bytes(manifest_path()), index);
}

TEST_F(ServeRestart, IndexMissingTheLastRowDoesNotRewindTheSequence) {
    const std::string index = seal_and_drain();
    const StatusReply before = open()->status();
    json::Value doc = json::parse(index);
    json::Array rows = doc.at("shards").as_array();
    ASSERT_EQ(rows.size(), kShards);
    rows.pop_back();
    json::Object shortened;
    for (const auto& [key, value] : doc.as_object()) {
        shortened.emplace_back(key, key == "shards" ? json::Value(rows) : value);
    }
    write_bytes(manifest_path(), json::Value(shortened).dump(2) + "\n");

    auto restarted = open();
    EXPECT_EQ(restarted->status(), before);
    EXPECT_EQ(restarted->status().shards_sealed, kShards);
    restarted->finish();
    EXPECT_EQ(read_bytes(manifest_path()), index);
}

TEST_F(ServeRestart, FlippedByteInASealedShardFailsStartup) {
    (void)seal_and_crash();
    const std::vector<std::string> shards = shard_files(dir_);
    ASSERT_EQ(shards.size(), kShards);
    std::string bytes = read_bytes(shards[1]);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
    write_bytes(shards[1], bytes);
    try {
        (void)open();
        ADD_FAILURE() << "restart resumed over a corrupt shard";
    } catch (const store::StoreError& error) {
        EXPECT_EQ(error.kind(), store::StoreErrorKind::Checksum) << error.what();
    }
}

TEST_F(ServeRestart, AnotherFleetsShardUnderTheNameFailsStartup) {
    (void)seal_and_crash();
    const std::vector<std::string> shards = shard_files(dir_);
    ASSERT_EQ(shards.size(), kShards);
    // A well-formed shard whose header names fleet 0 under fleet 0's key.
    std::filesystem::copy_file(shards[0], shards[1],
                               std::filesystem::copy_options::overwrite_existing);
    try {
        (void)open();
        ADD_FAILURE() << "restart resumed over another fleet's shard";
    } catch (const store::StoreError& error) {
        EXPECT_EQ(error.kind(), store::StoreErrorKind::Inconsistent) << error.what();
    }
}

}  // namespace
