// The serve daemon's domain core: classify batches, append them to live
// qrn-store shards, and verify Eq. 1 incrementally over the sealed prefix.
//
// Two threads touch a Service. The dispatcher thread calls every public
// method (the const status snapshot may also be taken after a drain), so
// classification and appends happen in arrival order, which is what makes
// shard contents deterministic. A full shard is handed to one sealer
// thread, started at the first roll, which seals it (fsync, atomic rename,
// directory fsync), re-reads it checksummed and only then publishes it
// into the sealed prefix; meanwhile the dispatcher opens the next shard
// and keeps appending. At most one shard seals at a time: the next roll
// waits for it, and so do status(), verify_json(), allocate_json() and
// finish(), so every reply is the one a synchronous seal would give. A
// seal or read-back that throws is kept and rethrown by every later call.
// The classification of a batch fans out over the shared exec thread pool
// (per-record work is index-pure), so a large batch still uses every core
// while the append stays serial.
//
// The sealed shards are the truth; `manifest.json` is an index written
// once, when finish() drains the service. Shard names and cache keys are
// pure functions of (catalog digest, sequence), so on startup the service
// deletes stray `.tmp` files (an interrupted writer's leavings) and probes
// `Store::shard_filename(i, key(i))` for i = 0, 1, ... until the first
// missing file, re-checksumming each shard as it folds it; appending
// resumes at that sequence number. A shard reaches its final name only
// after every earlier one has, so the first missing name ends the sealed
// sequence. A crash between a seal and the next index write therefore
// loses nothing, and a replayed stream with the same batching reproduces
// byte-identical shards.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "qrn/allocation.h"
#include "qrn/classification.h"
#include "qrn/incident_type.h"
#include "qrn/risk_norm.h"
#include "serve/protocol.h"
#include "store/cache_key.h"
#include "store/shard.h"
#include "store/store.h"

namespace qrn::serve {

/// The daemon could not serve a request for a domain reason (no sealed
/// evidence yet, inconsistent store). Maps to an Error reply, never to a
/// dropped connection.
class ServeError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct ServiceConfig {
    std::string store_dir;          ///< Required: the live shard store.
    std::uint64_t shard_roll = 4096;  ///< Records per shard before sealing.
    unsigned jobs = 1;              ///< Parallelism of batch classification.
};

class Service {
public:
    /// Creates the store directory if needed and heals it, rebuilds the
    /// sealed-prefix evidence fold from the shards found by name, and
    /// precomputes the allocation the verify/allocate replies are derived
    /// from. Neither reads nor writes the index and starts no thread.
    /// Throws StoreError when a shard that carries the next sequence's
    /// name is unreadable, corrupt, or names another key or fleet.
    Service(RiskNorm norm, IncidentTypeSet types, ServiceConfig config);
    /// Lets an in-flight seal finish, joins the sealer and drops the live
    /// shard's `.tmp`. Writes no index.
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// Classifies the batch, appends every record to the live shard
    /// (handing it to the sealer at shard_roll records), and returns one
    /// row per record in request order. The batch's exposure delta spreads
    /// uniformly over its records, so a batch spanning a roll boundary
    /// splits its exposure proportionally between the two shards. Does not
    /// wait for a seal unless it rolls while the previous one is in flight.
    [[nodiscard]] std::vector<ClassifyRow> classify_batch(const ClassifyRequest& request);

    /// The Eq. 1 verification report for the sealed prefix, serialized
    /// exactly as `qrn verify` prints it (same JSON, same trailing
    /// newline). Waits for the in-flight seal. Throws ServeError when no
    /// sealed evidence exists yet.
    [[nodiscard]] std::string verify_json(double confidence);

    /// The allocation snapshot, serialized exactly as `qrn allocate`
    /// prints it. Waits for the in-flight seal.
    [[nodiscard]] std::string allocate_json() const;

    /// Waits for the in-flight seal, then reports the sealed prefix and
    /// the live shard.
    [[nodiscard]] StatusReply status() const;

    /// Seals the partially-filled live shard (if any records are pending)
    /// so a graceful drain loses nothing, waits for it, then opens the
    /// store index and records every sealed shard in one Store::record.
    /// Throws StoreError when the index on disk is unreadable. Idempotent.
    void finish();

    [[nodiscard]] const IncidentTypeSet& types() const noexcept { return types_; }

private:
    /// A full shard on its way from the dispatcher to the sealer.
    struct SealJob {
        std::unique_ptr<store::ShardWriter> writer;
        std::uint64_t sequence = 0;
        std::uint64_t records = 0;   ///< records the service accepted into it.
        double exposure_hours = 0.0;
    };
    /// One sealed shard's contribution to the sealed prefix.
    struct ShardFold {
        store::ShardEntry entry;
        std::vector<std::uint64_t> type_events;
    };
    /// The sealed-prefix fold, in seal (= fleet) order; reproduces
    /// store::aggregate_evidence over the same shards term for term.
    struct SealedPrefix {
        std::vector<store::ShardEntry> shards;  ///< Index rows, from the footers.
        std::vector<std::uint64_t> type_events;
        ExposureHours exposure;
        std::uint64_t records = 0;

        void add(ShardFold fold);
    };

    void open_shard_if_needed();
    void roll_live_shard();
    void sealer_loop();
    [[nodiscard]] ShardFold seal_shard(SealJob& job) const;
    [[nodiscard]] ShardFold fold_shard(std::uint64_t sequence) const;
    void rethrow_seal_failure() const;
    template <typename Fn>
    decltype(auto) settled(Fn&& read) const;
    [[nodiscard]] std::uint64_t cache_key_for(std::uint64_t sequence) const;
    [[nodiscard]] std::string shard_path(std::uint64_t sequence) const;

    RiskNorm norm_;
    IncidentTypeSet types_;
    ServiceConfig config_;
    ClassificationTree tree_;
    /// Leaf node -> its ordinal in tree_.leaf_nodes() (the reply's leaf).
    std::unordered_map<const ClassificationNode*, std::uint16_t> leaf_ordinal_;
    std::optional<AllocationProblem> problem_;
    std::optional<Allocation> allocation_;
    store::KeyHasher key_prefix_;  ///< Salt + catalog digest, mixed once.

    // The live shard: dispatcher only. Its fleet index is next_sequence_,
    // one past the in-flight shard, if any.
    std::unique_ptr<store::ShardWriter> writer_;
    std::uint64_t next_sequence_ = 0;
    std::uint64_t pending_records_ = 0;   ///< records in the live shard.
    double pending_exposure_ = 0.0;       ///< exposure in the live shard.

    // Shared between the dispatcher and the sealer.
    mutable std::mutex seal_mutex_;
    mutable std::condition_variable seal_cv_;
    SealedPrefix sealed_;                 // qrn:guarded_by(seal_mutex_)
    std::optional<SealJob> handoff_;      // qrn:guarded_by(seal_mutex_)
    bool sealing_ = false;                // qrn:guarded_by(seal_mutex_)
    bool stopping_ = false;               // qrn:guarded_by(seal_mutex_)
    std::exception_ptr seal_failure_;     // qrn:guarded_by(seal_mutex_)
    std::thread sealer_;  ///< Started at the first roll.
};

}  // namespace qrn::serve
