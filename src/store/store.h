// The store: a directory of sealed shards plus a JSON manifest.
//
// A sealed shard is found by its content-addressed name alone:
// `fleet-<index>-<key>.qrs` (Store::shard_filename), checked by
// find_sealed_shard. `DIR/manifest.json` is an index of what the last
// finished run recorded, not an authority: nothing is reused because the
// manifest lists it, so a stale, hand-edited or deleted manifest costs at
// most a rewrite, never a wrong result or a re-simulation. Every writer -
// a campaign, the distributed coordinator, the serve daemon at drain -
// records all of its rows at once, and the file is rewritten atomically
// (temp + rename) only when some row changed; an interrupted run leaves
// its sealed shards behind, and they are what the next run resumes from.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace qrn::store {

/// One manifest row: a sealed shard the store knows about.
struct ShardEntry {
    std::uint64_t fleet_index = 0;
    std::string file;               ///< File name relative to the store dir.
    std::uint64_t cache_key = 0;
    std::uint64_t records = 0;      ///< Incident records (from the footer).
    double exposure_hours = 0.0;    ///< Exposure (informational; footer rules).

    friend bool operator==(const ShardEntry&, const ShardEntry&) = default;
};

/// What a store directory holds for one fleet under one content key.
struct SealedShard {
    std::optional<ShardEntry> entry;  ///< Set iff the shard is sealed.
    bool corrupt = false;  ///< A file has the shard's name but fails
                           ///< verification or names another fleet or key.
};

/// The one "is fleet `fleet_index` sealed under `cache_key`?" check: a
/// full integrity scan of `dir`/Store::shard_filename(fleet_index,
/// cache_key), whose header key and fleet index must match. The entry is
/// built from the footer. A missing file is a plain miss, not corruption.
[[nodiscard]] SealedShard find_sealed_shard(const std::string& dir,
                                            std::uint64_t fleet_index,
                                            std::uint64_t cache_key);

/// A shard store rooted at one directory. Thread-safe: record() rewrites
/// the manifest under a lock, so the on-disk index is always a consistent
/// snapshot.
class Store {
public:
    /// Opens the store directory and loads the manifest when one exists.
    /// Opening creates nothing: the directory is made by the first
    /// record() (or by a writer that puts shards there), so a read-only
    /// command on a mistyped path leaves no directory behind. Throws
    /// StoreError(Io) when the manifest cannot be read, and
    /// StoreError(Inconsistent) when it is not a store manifest.
    explicit Store(std::string dir);

    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
    [[nodiscard]] std::string manifest_path() const;

    /// True when the directory has a manifest: construction found one or
    /// record() wrote one. --resume requires it.
    [[nodiscard]] bool manifest_found() const noexcept { return manifest_found_; }

    /// The manifest row for a fleet, or nullptr when the store has none.
    [[nodiscard]] const ShardEntry* find(std::uint64_t fleet_index) const;

    /// All entries, sorted by fleet index.
    [[nodiscard]] std::vector<ShardEntry> entries() const;

    /// Absolute-ish path of an entry's shard file (dir/file).
    [[nodiscard]] std::string shard_path(const ShardEntry& entry) const;

    /// Canonical shard file name: fleet-<5-digit index>-<16-hex key>.qrs.
    [[nodiscard]] static std::string shard_filename(std::uint64_t fleet_index,
                                                    std::uint64_t cache_key);

    /// Upserts `entries` (a whole run's rows) and atomically rewrites the
    /// manifest, but only when some row differs from what the store holds
    /// or no manifest exists yet: recording unchanged rows writes nothing,
    /// and recording none writes an empty index into a fresh store. Creates
    /// the directory when it is missing. Throws StoreError(Io) when the
    /// manifest cannot be written.
    void record(std::span<const ShardEntry> entries);

private:
    void load_manifest();
    void write_manifest_locked();

    std::string dir_;
    mutable std::mutex mutex_;
    std::map<std::uint64_t, ShardEntry> rows_;
    std::atomic<bool> manifest_found_{false};  ///< Set by record() under mutex_.
};

/// Leftover `*.tmp` files in the store directory `dir` from interrupted
/// writes (sorted). These are never trusted as shards; inspect reports
/// them so operators know a previous run died mid-write, and the serve
/// daemon deletes them at startup. Needs no Store, so it reads no
/// manifest.
[[nodiscard]] std::vector<std::string> stray_temp_files(const std::string& dir);

}  // namespace qrn::store
