// Campaign execution with content-addressed caching and resume.
//
// Every fleet of a campaign is a pure function of its cache key, so a
// campaign run against a store becomes: for each fleet, either reuse the
// sealed shard named by its key, or simulate the fleet and seal a new
// shard. Reuse looks at the shard files (find_sealed_shard), never at the
// manifest, so a killed run resumes from the shards it sealed - with or
// without a manifest - and produces byte-identical shards, and therefore
// byte-identical downstream statistics, to an uninterrupted run. The run
// records its rows into the manifest once, after every fleet is settled.
//
// A shard is only ever reused after a full integrity re-scan: a corrupted,
// truncated or key-mismatched shard is counted, reported through qrn_obs
// and silently *re-simulated*, never trusted.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sim/campaign.h"
#include "store/store.h"

namespace qrn::store {

/// What the cache did for one campaign run.
struct StoreCampaignStats {
    std::size_t fleets_total = 0;
    std::size_t fleets_simulated = 0;  ///< Cache misses (simulated + sealed).
    std::size_t fleets_reused = 0;     ///< Verified cache hits.
    std::size_t shards_invalid = 0;    ///< Present but failed verification.

    /// One entry per fleet, in fleet order; every entry's shard is sealed
    /// and verified by the time this is returned.
    std::vector<ShardEntry> entries;
};

/// Runs the campaign against the store. Fleet i's key is
/// fleet_cache_key(config.base, config.hours_per_fleet, i, inputs_digest);
/// fleets run (or verify) in parallel per config.jobs, and the outcome is
/// independent of jobs and of interruption history. A store without a
/// manifest gets an empty one first; all rows are recorded in one
/// Store::record call at the end. Throws StoreError(Io) when shards or the
/// manifest cannot be written and std::invalid_argument on a config the
/// plain run_campaign would also reject.
[[nodiscard]] StoreCampaignStats run_campaign_with_store(
    const sim::CampaignConfig& config, Store& store, std::string_view inputs_digest);

/// Simulates one fleet of the campaign and seals its shard into `dir`,
/// without touching any manifest: the single code path behind both the
/// local cache-miss branch above and the distributed scheduler's workers,
/// so a shard's bytes depend only on the campaign inputs - never on which
/// process produced it. Returns the manifest row describing the sealed
/// shard (the caller decides whether and where to record it).
[[nodiscard]] ShardEntry simulate_fleet_shard(const sim::CampaignConfig& config,
                                              const std::string& dir,
                                              std::size_t fleet_index,
                                              std::string_view inputs_digest);

}  // namespace qrn::store
