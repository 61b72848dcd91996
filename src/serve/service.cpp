#include "serve/service.h"

#include <filesystem>
#include <utility>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "qrn/contribution.h"
#include "qrn/injury_risk.h"
#include "qrn/serialize.h"
#include "qrn/verification.h"
#include "qrn/incident_columns.h"
#include "store/cache_key.h"
#include "store/format.h"

namespace qrn::serve {

// The sealed prefix and the hand-off slot are declared in service.h; the
// file-wide form re-states their lock where the accesses live.
// qrn:guarded_by(sealed_, seal_mutex_)
// qrn:guarded_by(handoff_, seal_mutex_)
// qrn:guarded_by(sealing_, seal_mutex_)
// qrn:guarded_by(stopping_, seal_mutex_)
// qrn:guarded_by(seal_failure_, seal_mutex_)

namespace {

/// Format-version salt of serve shard cache keys. Serve shards are not
/// simulation caches: the key's only job is to make the shard file name a
/// pure function of (catalog, sequence) so a replayed stream reproduces
/// identical names.
constexpr std::string_view kServeKeySalt = "qrn.serve.shard.v1";

/// The key stream every shard key of a catalog starts with: the salt and
/// the catalog digest. Hashed once, so a key costs one mix of its sequence.
store::KeyHasher serve_key_prefix(const IncidentTypeSet& types) {
    store::KeyHasher hasher;
    hasher.mix_string(kServeKeySalt);
    hasher.mix_string(to_json(types).dump());
    return hasher;
}

/// Declares every serve metric once so --metrics manifests have the same
/// structure whether or not a counter ever fired.
void declare_serve_metrics() {
    obs::add_counter("serve.batches", 0);
    obs::add_counter("serve.records_accepted", 0);
    obs::add_counter("serve.shards_sealed", 0);
    obs::add_counter("serve.requests_verify", 0);
    obs::add_counter("serve.requests_allocate", 0);
    obs::add_counter("serve.requests_status", 0);
    obs::declare_timer("serve.batch_ns");
    obs::declare_timer("serve.seal_ns");
    obs::declare_timer("serve.verify_ns");
}

}  // namespace

Service::Service(RiskNorm norm, IncidentTypeSet types, ServiceConfig config)
    : norm_(std::move(norm)),
      types_(std::move(types)),
      config_(std::move(config)),
      tree_(ClassificationTree::paper_example()),
      key_prefix_(serve_key_prefix(types_)) {
    if (config_.store_dir.empty()) {
        throw store::StoreError(store::StoreErrorKind::Io, "store directory path is empty");
    }
    if (config_.shard_roll == 0) {
        throw ServeError("shard_roll must be >= 1");
    }
    if (obs::enabled()) declare_serve_metrics();
    for (const ClassificationNode* leaf : tree_.leaf_nodes()) {
        leaf_ordinal_.emplace(leaf, static_cast<std::uint16_t>(leaf_ordinal_.size()));
    }
    {
        // Same construction as `qrn allocate`/`qrn verify`: the replies
        // must be byte-identical to the batch CLI on the same inputs.
        const InjuryRiskModel model;
        const auto matrix =
            ContributionMatrix::from_injury_model(norm_, types_, model, {0.6, 0.4});
        problem_.emplace(norm_, types_, matrix);
        allocation_.emplace(allocate_water_filling(*problem_));
    }
    std::error_code ec;
    std::filesystem::create_directories(config_.store_dir, ec);
    if (ec) {
        throw store::StoreError(store::StoreErrorKind::Io,
                                "cannot create store directory '" + config_.store_dir +
                                    "': " + ec.message());
    }
    // Heal: an interrupted writer leaves a `.tmp` no reader ever trusts.
    for (const auto& name : store::stray_temp_files(config_.store_dir)) {
        std::filesystem::remove(config_.store_dir + "/" + name);
    }
    // Rebuild the sealed-prefix fold from the shards themselves, found by
    // name in sequence order up to the first missing file. A file that is
    // there but unreadable or corrupt is not the end of the sequence: its
    // scan throws and fails startup loudly.
    const std::lock_guard<std::mutex> lock(seal_mutex_);
    sealed_.type_events.assign(types_.size(), 0);
    while (std::filesystem::status(shard_path(next_sequence_), ec).type() !=
           std::filesystem::file_type::not_found) {
        sealed_.add(fold_shard(next_sequence_));
        ++next_sequence_;
    }
}

Service::~Service() {
    if (!sealer_.joinable()) return;
    {
        const std::lock_guard<std::mutex> lock(seal_mutex_);
        stopping_ = true;
    }
    seal_cv_.notify_all();
    sealer_.join();
}

std::uint64_t Service::cache_key_for(std::uint64_t sequence) const {
    store::KeyHasher hasher = key_prefix_;
    hasher.mix_u64(sequence);
    return hasher.digest();
}

std::string Service::shard_path(std::uint64_t sequence) const {
    return config_.store_dir + "/" +
           store::Store::shard_filename(sequence, cache_key_for(sequence));
}

void Service::open_shard_if_needed() {
    if (writer_) return;
    writer_ = std::make_unique<store::ShardWriter>(
        shard_path(next_sequence_), cache_key_for(next_sequence_), next_sequence_);
}

void Service::SealedPrefix::add(ShardFold fold) {
    for (std::size_t k = 0; k < type_events.size(); ++k) {
        type_events[k] += fold.type_events[k];
    }
    exposure += ExposureHours(fold.entry.exposure_hours);
    records += fold.entry.records;
    shards.push_back(std::move(fold.entry));
}

Service::ShardFold Service::fold_shard(std::uint64_t sequence) const {
    // The one scan of a sealed shard, on restart and after a seal alike:
    // the header must name this sequence and key, every block is
    // checksummed, and the per-type counts are the ones
    // store::aggregate_evidence takes, so folding them in seal order
    // reproduces a full aggregate over the sealed prefix bit for bit.
    const std::uint64_t key = cache_key_for(sequence);
    const std::string path = shard_path(sequence);
    store::ShardReader reader(path);
    if (reader.cache_key() != key || reader.fleet_index() != sequence) {
        throw store::StoreError(
            store::StoreErrorKind::Inconsistent,
            path + ": header names fleet " + std::to_string(reader.fleet_index()) +
                " under key " + store::key_hex(reader.cache_key()) +
                ", not serve sequence " + std::to_string(sequence) + " under key " +
                store::key_hex(key));
    }
    ShardFold fold;
    fold.type_events.assign(types_.size(), 0);
    const store::ShardInfo info =
        reader.for_each_block([&](const IncidentColumns& block) {
            const std::vector<std::uint64_t> counts = count_matching_all(block, types_);
            for (std::size_t k = 0; k < types_.size(); ++k) fold.type_events[k] += counts[k];
        });
    fold.entry = {sequence, store::Store::shard_filename(sequence, key), key, info.records,
                  info.totals.exposure_hours};
    return fold;
}

Service::ShardFold Service::seal_shard(SealJob& job) const {
    const obs::ScopedTimer timer("serve.seal_ns");
    store::ShardTotals totals;
    totals.exposure_hours = job.exposure_hours;
    const store::SealReceipt receipt = job.writer->seal(totals);
    if (receipt.records != job.records) {
        // The index row folded below would claim the footer's count; a
        // footer that disagrees with what the service accepted means
        // records were lost, so fail the seal loudly instead.
        throw store::StoreError(
            store::StoreErrorKind::Inconsistent,
            "seal receipt claims " + std::to_string(receipt.records) +
                " records but the service accepted " + std::to_string(job.records));
    }
    ShardFold fold = fold_shard(job.sequence);
    if (obs::enabled()) obs::add_counter("serve.shards_sealed", 1);
    return fold;
}

void Service::sealer_loop() {
    std::unique_lock<std::mutex> lock(seal_mutex_);
    for (;;) {
        seal_cv_.wait(lock, [&] { return handoff_.has_value() || stopping_; });
        // A stop request still lets the handed-off shard seal first.
        if (!handoff_) return;
        SealJob job = std::move(*handoff_);
        handoff_.reset();
        lock.unlock();
        std::optional<ShardFold> fold;
        std::exception_ptr failure;
        try {
            fold = seal_shard(job);
        } catch (...) {
            failure = std::current_exception();
        }
        job.writer.reset();  // a writer that failed to seal drops its .tmp
        lock.lock();
        if (fold) {
            sealed_.add(std::move(*fold));
        } else {
            seal_failure_ = failure;
        }
        sealing_ = false;
        seal_cv_.notify_all();
    }
}

void Service::rethrow_seal_failure() const {
    const std::lock_guard<std::mutex> lock(seal_mutex_);
    if (seal_failure_) std::rethrow_exception(seal_failure_);
}

/// Waits until no shard is sealing, rethrows a failed seal, then calls
/// `read` on the sealed prefix under the lock. Only the dispatcher hands
/// shards off, so the prefix it reads is final for the request.
template <typename Fn>
decltype(auto) Service::settled(Fn&& read) const {
    std::unique_lock<std::mutex> lock(seal_mutex_);
    seal_cv_.wait(lock, [&] { return !sealing_; });
    if (seal_failure_) std::rethrow_exception(seal_failure_);
    return read(sealed_);
}

void Service::roll_live_shard() {
    if (!sealer_.joinable()) sealer_ = std::thread([this] { sealer_loop(); });
    // At most one shard seals at a time: a roll that catches the previous
    // seal still running waits for it, which keeps memory bounded and
    // shards reaching their final names in sequence order.
    settled([](const SealedPrefix&) {});
    {
        const std::lock_guard<std::mutex> lock(seal_mutex_);
        handoff_.emplace(
            SealJob{std::move(writer_), next_sequence_, pending_records_, pending_exposure_});
        sealing_ = true;
    }
    seal_cv_.notify_all();
    ++next_sequence_;
    pending_records_ = 0;
    pending_exposure_ = 0.0;
}

std::vector<ClassifyRow> Service::classify_batch(const ClassifyRequest& request) {
    const obs::ScopedTimer timer("serve.batch_ns");
    rethrow_seal_failure();
    const auto& incidents = request.incidents;
    // Classification is index-pure, so the batch fans out over the shared
    // exec pool; rows come back in record order regardless of schedule.
    const auto rows = exec::parallel_map<ClassifyRow>(
        config_.jobs, incidents.size(), [&](std::size_t i) {
            ClassifyRow row;
            row.leaf = leaf_ordinal_.at(&tree_.classify_leaf(incidents[i]));
            const auto type = types_.classify(incidents[i]);
            row.type = type ? static_cast<std::uint16_t>(*type) : kNoType;
            return row;
        });
    // Serial append in arrival order: this is what pins shard bytes.
    if (!incidents.empty()) {
        const double per_record =
            request.exposure_hours / static_cast<double>(incidents.size());
        for (const auto& incident : incidents) {
            open_shard_if_needed();
            writer_->append(incident);
            pending_exposure_ += per_record;
            ++pending_records_;
            if (pending_records_ == config_.shard_roll) roll_live_shard();
        }
    } else {
        // A record-free batch still carries exposure; it attaches to the
        // live shard and seals with it.
        pending_exposure_ += request.exposure_hours;
    }
    if (obs::enabled()) {
        obs::add_counter("serve.batches", 1);
        obs::add_counter("serve.records_accepted", incidents.size());
    }
    return rows;
}

std::string Service::verify_json(double confidence) {
    const obs::ScopedTimer timer("serve.verify_ns");
    if (obs::enabled()) obs::add_counter("serve.requests_verify", 1);
    const std::vector<TypeEvidence> sealed_evidence = settled([&](const SealedPrefix& sealed) {
        if (sealed.shards.empty() || sealed.exposure.hours() <= 0.0) {
            throw ServeError(
                "no sealed evidence yet: stream classify batches (and drain or "
                "roll a shard) before verifying");
        }
        std::vector<TypeEvidence> out;
        out.reserve(types_.size());
        for (std::size_t k = 0; k < types_.size(); ++k) {
            TypeEvidence e;
            e.incident_type_id = types_.at(k).id();
            e.events = sealed.type_events[k];
            e.exposure = sealed.exposure;
            out.push_back(std::move(e));
        }
        return out;
    });
    // Round-trip the evidence through its JSON document exactly as the
    // batch path does (campaign writes it, `verify --evidence` re-reads
    // it), so the report bytes cannot diverge on serialization precision.
    const auto evidence = evidence_from_json(evidence_to_json(sealed_evidence));
    const auto report =
        verify_against_evidence(*problem_, *allocation_, evidence, confidence);
    return to_json(report).dump(2) + "\n";
}

std::string Service::allocate_json() const {
    if (obs::enabled()) obs::add_counter("serve.requests_allocate", 1);
    settled([](const SealedPrefix&) {});
    return to_json(*allocation_, types_).dump(2) + "\n";
}

StatusReply Service::status() const {
    if (obs::enabled()) obs::add_counter("serve.requests_status", 1);
    StatusReply out;
    settled([&](const SealedPrefix& sealed) {
        out.records_sealed = sealed.records;
        out.shards_sealed = sealed.shards.size();
        out.exposure_sealed_hours = sealed.exposure.hours();
    });
    out.records_pending = pending_records_;
    return out;
}

void Service::finish() {
    if (writer_ && pending_records_ > 0) {
        roll_live_shard();
    } else {
        writer_.reset();  // removes an empty .tmp, if one was opened
    }
    // The index is opened only here: construction and restart read none of
    // it, so a restart never parses an index of thousands of rows.
    settled([&](const SealedPrefix& sealed) {
        store::Store(config_.store_dir).record(sealed.shards);
    });
}

}  // namespace qrn::serve
