// The serve Service seals each full shard on its own sealer thread while
// the dispatcher appends to the next one. These tests slow the sealer down
// or make it fail through the store's sync hook and require the serving
// contract to hold regardless: every reply and every shard byte equals the
// ones the same request stream gets from an unhindered sealer, a failed
// seal reaches the next request as Error and fails the drain, and a
// Service destroyed with a seal in flight joins its sealer and leaves a
// store that restarts cleanly.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "store/format.h"
#include "store/sync.h"

namespace {

using namespace qrn;
using namespace qrn::serve;

constexpr std::uint64_t kShardRoll = 64;

/// Installs a sync hook for one test and always restores production
/// behaviour. Constructed before any Service of the test exists and
/// destroyed after the last one, so the hook never changes while a sealer
/// thread can read it.
class SyncHookGuard {
public:
    explicit SyncHookGuard(std::function<void(store::SyncKind, const std::string&)> hook) {
        store::detail::set_sync_hook_for_test(std::move(hook));
    }
    ~SyncHookGuard() { store::detail::set_sync_hook_for_test(nullptr); }
    SyncHookGuard(const SyncHookGuard&) = delete;
    SyncHookGuard& operator=(const SyncHookGuard&) = delete;
};

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// Every file in a store directory by name, with its bytes.
std::map<std::string, std::string> store_files(const std::string& dir) {
    std::map<std::string, std::string> out;
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
        out.emplace(item.path().filename().string(), read_bytes(item.path().string()));
    }
    return out;
}

/// Sealed shard file names in `dir`, sorted by name (= by sequence).
std::vector<std::string> shard_names(const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
        if (item.path().extension() == ".qrs") out.push_back(item.path().filename().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool has_temp_file(const std::string& dir) {
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
        if (item.path().extension() == ".tmp") return true;
    }
    return false;
}

std::vector<Incident> stream_batch(std::uint64_t first, std::uint64_t count) {
    std::vector<Incident> out;
    out.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(stream_incident(first + i));
    return out;
}

class ServeSealer : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        root_ = ::testing::TempDir() + "qrn_serve_sealer_" + info->name();
        std::filesystem::remove_all(root_);
        std::filesystem::create_directories(root_);
    }

    void TearDown() override { std::filesystem::remove_all(root_); }

    [[nodiscard]] std::string store_dir(const std::string& name) const {
        return root_ + "/" + name;
    }

    [[nodiscard]] static std::unique_ptr<Service> open(const std::string& dir) {
        ServiceConfig config;
        config.store_dir = dir;
        config.shard_roll = kShardRoll;
        return std::make_unique<Service>(RiskNorm::paper_example(),
                                         IncidentTypeSet::paper_vru_example(), config);
    }

    /// A daemon on a Unix socket over the store `name`.
    [[nodiscard]] std::unique_ptr<Server> serve(const std::string& name) const {
        ServerConfig config;
        config.socket_path = root_ + "/" + name + ".sock";
        config.poll_ms = 10;
        auto server = std::make_unique<Server>(open(store_dir(name)), config);
        server->start();
        return server;
    }

    [[nodiscard]] Client connect(const std::string& name) const {
        return Client::connect_unix(root_ + "/" + name + ".sock");
    }

    /// Streams `batches` classify batches of `batch_size` records into the
    /// store `name` and drains. With `query`, a Status and a Verify follow
    /// every batch; their reply frames (status byte and payload) are
    /// returned in order.
    [[nodiscard]] std::vector<std::string> stream(const std::string& name, std::uint64_t batches,
                                                  std::uint64_t batch_size, bool query) const {
        std::vector<std::string> replies;
        auto server = serve(name);
        {
            Client client = connect(name);
            for (std::uint64_t b = 0; b < batches; ++b) {
                const auto reply =
                    client.classify_with_retry(3.5, stream_batch(b * batch_size, batch_size));
                EXPECT_EQ(reply.status, Status::Ok) << reply.payload;
                if (!query) continue;
                const auto status = client.status();
                // Status waits for the seal a roll started, so every full
                // shard of the stream so far is already sealed.
                EXPECT_EQ(status.state.records_sealed,
                          (b + 1) * batch_size / kShardRoll * kShardRoll);
                replies.push_back(std::to_string(static_cast<int>(status.status)) + " " +
                                  status.payload);
                const auto verify = client.verify(0.95);
                replies.push_back(std::to_string(static_cast<int>(verify.status)) + " " +
                                  verify.payload);
            }
            client.close();
        }
        server->drain();
        return replies;
    }

    std::string root_;
};

TEST_F(ServeSealer, SlowSealerGivesTheSameRepliesAndBytes) {
    // 24-record batches against a 64-record roll: rolls fall inside
    // batches, so exposure splits across shards, and a partial shard is
    // left for the drain to seal. 20 batches seal 8 shards.
    constexpr std::uint64_t kBatches = 20;
    constexpr std::uint64_t kBatchSize = 24;
    const auto fast_replies = stream("fast", kBatches, kBatchSize, /*query=*/true);

    std::atomic<int> file_syncs{0};
    std::vector<std::string> slow_replies;
    {
        const SyncHookGuard guard([&](store::SyncKind kind, const std::string&) {
            if (kind != store::SyncKind::File) return;
            file_syncs.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
        });
        slow_replies = stream("slow", kBatches, kBatchSize, /*query=*/true);
        // No query between batches: rolls hand off while the previous
        // seal may still be running.
        (void)stream("slow_unqueried", kBatches, kBatchSize, /*query=*/false);
    }
    EXPECT_EQ(file_syncs.load(), 16);

    ASSERT_EQ(slow_replies.size(), 2 * kBatches);
    EXPECT_EQ(slow_replies, fast_replies);
    // Before the first seal Verify is an Error; after it, a report.
    EXPECT_EQ(fast_replies[1].rfind("2 no sealed evidence yet", 0), 0u) << fast_replies[1];
    EXPECT_EQ(fast_replies.back().rfind("0 {", 0), 0u) << fast_replies.back();

    const auto fast_files = store_files(store_dir("fast"));
    EXPECT_EQ(shard_names(store_dir("fast")).size(), 8u);
    ASSERT_TRUE(fast_files.count("manifest.json"));
    EXPECT_TRUE(store_files(store_dir("slow")) == fast_files);
    EXPECT_TRUE(store_files(store_dir("slow_unqueried")) == fast_files);
}

TEST_F(ServeSealer, FailedSealIsAnErrorAndFailsTheDrain) {
    // One batch per roll; the sealer's sync of shard kFailing throws.
    constexpr std::uint64_t kFailing = 2;
    (void)stream("reference", kFailing + 1, kShardRoll, /*query=*/false);
    const std::vector<std::string> reference = shard_names(store_dir("reference"));
    ASSERT_EQ(reference.size(), kFailing + 1);

    {
        std::atomic<std::uint64_t> file_syncs{0};
        const SyncHookGuard guard([&](store::SyncKind kind, const std::string&) {
            if (kind == store::SyncKind::File && file_syncs.fetch_add(1) == kFailing) {
                throw store::StoreError(store::StoreErrorKind::Io, "injected fsync failure");
            }
        });
        auto server = serve("failing");
        {
            Client client = connect("failing");
            for (std::uint64_t b = 0; b <= kFailing; ++b) {
                const auto reply =
                    client.classify_with_retry(3.5, stream_batch(b * kShardRoll, kShardRoll));
                // The rolling batch itself is accepted: its shard fails
                // after the reply, on the sealer.
                ASSERT_EQ(reply.status, Status::Ok) << reply.payload;
            }
            const auto status = client.status();
            EXPECT_EQ(status.status, Status::Error);
            EXPECT_NE(status.payload.find("injected fsync failure"), std::string::npos)
                << status.payload;
            // The failure is sticky: every later request reports it.
            const auto classify = client.classify_with_retry(
                3.5, stream_batch((kFailing + 1) * kShardRoll, kShardRoll));
            EXPECT_EQ(classify.status, Status::Error);
            EXPECT_EQ(client.verify(0.95).status, Status::Error);
            EXPECT_EQ(client.allocate().status, Status::Error);
            client.close();
        }
        EXPECT_THROW(server->drain(), store::StoreError);
        server.reset();
    }

    const std::string dir = store_dir("failing");
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + reference[kFailing]));
    EXPECT_FALSE(has_temp_file(dir));
    const std::vector<std::string> sealed = shard_names(dir);
    ASSERT_EQ(sealed.size(), kFailing);
    for (std::uint64_t i = 0; i < kFailing; ++i) {
        EXPECT_EQ(sealed[i], reference[i]);
        EXPECT_EQ(read_bytes(dir + "/" + sealed[i]),
                  read_bytes(store_dir("reference") + "/" + reference[i]));
    }

    auto restarted = open(dir);
    const StatusReply status = restarted->status();
    EXPECT_EQ(status.shards_sealed, kFailing);
    EXPECT_EQ(status.records_sealed, kFailing * kShardRoll);
    EXPECT_EQ(status.records_pending, 0u);
}

TEST_F(ServeSealer, DestroyedWithASealInFlightJoinsAndHeals) {
    const std::string dir = store_dir("destroyed");
    std::atomic<bool> entered{false};
    std::atomic<bool> release{false};
    std::atomic<bool> left{false};
    {
        // The seal stays in its fsync until the test releases it.
        const SyncHookGuard guard([&](store::SyncKind kind, const std::string&) {
            if (kind != store::SyncKind::File) return;
            entered = true;
            while (!release) std::this_thread::yield();
            left = true;
        });
        auto service = open(dir);
        ClassifyRequest request;
        request.exposure_hours = 5.0;
        // One full shard, handed to the sealer, and a partial one whose
        // `.tmp` stays open on the dispatcher side.
        request.incidents = stream_batch(0, kShardRoll + kShardRoll / 2);
        (void)service->classify_batch(request);
        while (!entered) std::this_thread::yield();
        std::atomic<bool> destroyed{false};
        // qrn-lint: allow(thread-discipline) the destructor under test blocks, so it runs beside the thread that releases the seal
        std::thread destroyer([&] {
            service.reset();
            destroyed = true;
        });
        // A destructor that does not wait for the seal returns while the
        // seal is still held; one that does cannot return before release.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        EXPECT_FALSE(destroyed.load());
        release = true;
        destroyer.join();
        EXPECT_TRUE(left.load());
    }
    EXPECT_FALSE(has_temp_file(dir));
    ASSERT_EQ(shard_names(dir).size(), 1u);
    // The shard under the final name is whole: the restart re-checksums it.
    auto restarted = open(dir);
    const StatusReply status = restarted->status();
    EXPECT_EQ(status.shards_sealed, 1u);
    EXPECT_EQ(status.records_sealed, kShardRoll);
}

}  // namespace
