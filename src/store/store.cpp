#include "store/store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "qrn/json.h"
#include "store/cache_key.h"
#include "store/format.h"
#include "store/shard.h"

namespace qrn::store {

namespace {

constexpr int kManifestSchemaVersion = 1;
constexpr std::string_view kManifestKind = "qrn.store";
constexpr std::string_view kManifestName = "manifest.json";

/// Fleet indices and record counts live in JSON numbers (doubles), which
/// hold every integer up to 2^53 exactly; anything else is not a count.
std::uint64_t entry_u64(const json::Value& value, const std::string& what) {
    const std::optional<std::uint64_t> number = value.as_exact_u64();
    if (!number) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "manifest field '" + what + "' is not an integer in [0, 2^53]");
    }
    return *number;
}

}  // namespace

Store::Store(std::string dir) : dir_(std::move(dir)) {
    if (dir_.empty()) {
        throw StoreError(StoreErrorKind::Io, "store directory path is empty");
    }
    load_manifest();
}

std::string Store::manifest_path() const {
    return dir_ + "/" + std::string(kManifestName);
}

void Store::load_manifest() {
    const std::string path = manifest_path();
    std::ifstream in(path);
    if (!in) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            throw StoreError(StoreErrorKind::Io,
                             "store manifest '" + path + "' exists but cannot be read");
        }
        return;  // Fresh store: no manifest yet.
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) {
        throw StoreError(StoreErrorKind::Io,
                         "I/O error while reading store manifest '" + path + "'");
    }

    json::Value doc;
    try {
        doc = json::parse(text.str());
    } catch (const std::exception& e) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "store manifest '" + path + "' is not valid JSON: " + e.what());
    }
    try {
        if (doc.at("kind").as_string() != kManifestKind) {
            throw StoreError(StoreErrorKind::Inconsistent,
                             "'" + path + "' is not a store manifest (kind '" +
                                 doc.at("kind").as_string() + "')");
        }
        const auto version = entry_u64(doc.at("schema_version"), "schema_version");
        if (version != kManifestSchemaVersion) {
            throw StoreError(StoreErrorKind::Inconsistent,
                             "store manifest '" + path + "' has schema version " +
                                 std::to_string(version) + "; this build reads " +
                                 std::to_string(kManifestSchemaVersion));
        }
        for (const json::Value& row : doc.at("shards").as_array()) {
            ShardEntry entry;
            entry.fleet_index = entry_u64(row.at("fleet_index"), "fleet_index");
            entry.file = row.at("file").as_string();
            entry.cache_key = key_from_hex(row.at("key").as_string());
            entry.records = entry_u64(row.at("records"), "records");
            entry.exposure_hours = row.at("exposure_hours").as_number();
            if (entry.file.empty() || entry.file.find('/') != std::string::npos) {
                throw StoreError(StoreErrorKind::Inconsistent,
                                 "store manifest '" + path +
                                     "' names an invalid shard file '" + entry.file + "'");
            }
            rows_[entry.fleet_index] = std::move(entry);
        }
    } catch (const StoreError&) {
        throw;
    } catch (const std::exception& e) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "store manifest '" + path + "' is malformed: " + e.what());
    }
    manifest_found_ = true;
}

void Store::write_manifest_locked() {
    // The bytes of the whole document dumped at indent 2, rendered one row
    // at a time: an index of thousands of shards never exists as a JSON
    // tree, which costs about 1 KB per row at a serve drain.
    std::string text = json::Value(json::Object{
                                       {"kind", std::string(kManifestKind)},
                                       {"schema_version", kManifestSchemaVersion},
                                       {"shards", json::Array{}},
                                   })
                           .dump(2);
    if (!rows_.empty()) {
        // Reopen the empty array: the document ends in `"shards": []\n}`.
        text.resize(text.size() - std::strlen("]\n}"));
        const char* separator = "\n    ";
        for (const auto& [index, entry] : rows_) {
            text += separator;
            separator = ",\n    ";
            json::Value(json::Object{
                            {"fleet_index", static_cast<std::size_t>(entry.fleet_index)},
                            {"file", entry.file},
                            {"key", key_hex(entry.cache_key)},
                            {"records", static_cast<std::size_t>(entry.records)},
                            {"exposure_hours", entry.exposure_hours},
                        })
                .dump_to(text, 2, 2);
        }
        text += "\n  ]\n}";
    }
    text += '\n';

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot create store directory '" +
                                                 dir_ + "': " + ec.message());
    }
    const std::string path = manifest_path();
    const std::string tmp = path + std::string(kTempSuffix);
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            throw StoreError(StoreErrorKind::Io,
                             "cannot open '" + tmp + "' for writing");
        }
        out << text;
        out.flush();
        if (!out.good()) {
            throw StoreError(StoreErrorKind::Io,
                             "I/O error while writing store manifest '" + tmp + "'");
        }
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot rename '" + tmp + "' to '" +
                                                 path + "': " + ec.message());
    }
}

const ShardEntry* Store::find(std::uint64_t fleet_index) const {
    const std::scoped_lock lock(mutex_);
    const auto it = rows_.find(fleet_index);
    return it == rows_.end() ? nullptr : &it->second;
}

std::vector<ShardEntry> Store::entries() const {
    const std::scoped_lock lock(mutex_);
    std::vector<ShardEntry> out;
    out.reserve(rows_.size());
    for (const auto& [index, entry] : rows_) out.push_back(entry);
    return out;
}

std::string Store::shard_path(const ShardEntry& entry) const {
    return dir_ + "/" + entry.file;
}

std::string Store::shard_filename(std::uint64_t fleet_index, std::uint64_t cache_key) {
    std::string digits = std::to_string(fleet_index);
    if (digits.size() < 5) digits.insert(0, 5 - digits.size(), '0');
    return "fleet-" + digits + "-" + key_hex(cache_key) + std::string(kShardExtension);
}

void Store::record(std::span<const ShardEntry> entries) {
    const std::scoped_lock lock(mutex_);
    bool changed = !manifest_found_;
    for (const ShardEntry& entry : entries) {
        const auto [it, inserted] = rows_.try_emplace(entry.fleet_index);
        if (!inserted && it->second == entry) continue;
        it->second = entry;
        changed = true;
    }
    if (!changed) return;
    write_manifest_locked();
    manifest_found_ = true;
}

SealedShard find_sealed_shard(const std::string& dir, std::uint64_t fleet_index,
                              std::uint64_t cache_key) {
    SealedShard out;
    const std::string file = Store::shard_filename(fleet_index, cache_key);
    try {
        const ShardInfo info = verify_shard(dir + "/" + file);
        if (info.cache_key != cache_key || info.fleet_index != fleet_index) {
            out.corrupt = true;
            return out;
        }
        out.entry = ShardEntry{fleet_index, file, cache_key, info.records,
                               info.totals.exposure_hours};
    } catch (const StoreError& error) {
        // Io is a missing or unreadable file: absence, not corruption.
        out.corrupt = error.is_corruption();
    }
    return out;
}

std::vector<std::string> stray_temp_files(const std::string& dir) {
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& item : std::filesystem::directory_iterator(dir, ec)) {
        if (!item.is_regular_file(ec)) continue;
        const std::string name = item.path().filename().string();
        if (name.size() > kTempSuffix.size() &&
            name.ends_with(kTempSuffix)) {
            out.push_back(name);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace qrn::store
