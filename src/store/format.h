// The qrn-store shard format: on-disk constants, typed failure modes and
// the little-endian byte codecs shared by the writer and the reader.
//
// A shard is one fleet's incident log as a block-based binary file
// (docs/STORE.md has the full specification):
//
//   header   magic "QRNSHRD1", u32 version, u32 reserved flags,
//            u64 cache key, u64 fleet index, u32 CRC of the above
//   blocks   u32 block tag, u32 record count (1..kBlockRecords),
//            records (28 bytes each), u32 CRC of the record payload
//   footer   u32 footer tag, u64 record total, f64 exposure hours,
//            six u64 operational counters, u64 cache key (again),
//            u32 CRC of the footer payload
//
// All integers and doubles are little-endian; doubles travel as their
// IEEE-754 bit patterns, so a round-trip is bit-exact and a resumed
// campaign reproduces the in-memory statistics digit for digit. The footer
// only exists on sealed shards: a reader that hits end-of-file before the
// footer tag is looking at an interrupted write and must fail loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "qrn/incident.h"
#include "qrn/incident_columns.h"

namespace qrn::store {

inline constexpr std::string_view kShardMagic = "QRNSHRD1";  ///< 8 bytes.
inline constexpr std::uint32_t kShardVersion = 1;
inline constexpr std::uint32_t kBlockTag = 0xB10C0001u;
inline constexpr std::uint32_t kFooterTag = 0xF007E001u;
/// Records per payload block; the last block of a shard may hold fewer.
inline constexpr std::uint32_t kBlockRecords = 512;
/// Encoded size of one incident record in bytes.
inline constexpr std::size_t kRecordBytes = 28;
/// Suffix of in-progress shard files; the atomic rename on seal removes it,
/// so a file still wearing it is an interrupted write.
inline constexpr std::string_view kTempSuffix = ".tmp";
/// Extension of shard files inside a store directory.
inline constexpr std::string_view kShardExtension = ".qrs";

/// Why a store operation failed; tests and exit-code mapping key off this
/// (corruption exits 2, plain I/O exits 3 - see the CLI contract).
enum class StoreErrorKind {
    Io,            ///< File missing, unreadable or unwritable.
    BadMagic,      ///< Not a qrn-store shard at all.
    BadVersion,    ///< A shard from a different format revision.
    Truncated,     ///< End-of-file before the sealed footer (crashed write).
    Checksum,      ///< A block or footer CRC mismatch (bit rot).
    Inconsistent,  ///< Structurally valid but self-contradictory (counts,
                   ///< keys or record fields that cannot all be true).
};

[[nodiscard]] std::string_view to_string(StoreErrorKind kind) noexcept;

/// A shard or store-manifest operation failed. what() carries the path and
/// the reason; kind() says whether the data is corrupt or merely absent.
class StoreError : public std::runtime_error {
public:
    StoreError(StoreErrorKind kind, const std::string& message);

    [[nodiscard]] StoreErrorKind kind() const noexcept { return kind_; }

    /// True for every kind except Io: the bytes exist but cannot be
    /// trusted, so callers must re-simulate or report corruption.
    [[nodiscard]] bool is_corruption() const noexcept {
        return kind_ != StoreErrorKind::Io;
    }

private:
    StoreErrorKind kind_;
};

/// The sealed footer's operational totals: everything an IncidentLog
/// carries besides the incident records themselves.
struct ShardTotals {
    double exposure_hours = 0.0;
    std::uint64_t encounters = 0;
    std::uint64_t emergency_brakings = 0;
    std::uint64_t degraded_hours = 0;
    std::uint64_t odd_exits = 0;
    std::uint64_t mrm_executions = 0;
    std::uint64_t unmonitored_exits = 0;

    friend bool operator==(const ShardTotals&, const ShardTotals&) = default;
};

// ---- little-endian byte codecs ----------------------------------------
//
// Explicit byte assembly instead of struct memcpy: the format is defined
// by these functions, not by any compiler's padding or host endianness.

void put_u32(std::string& out, std::uint32_t value);
void put_u64(std::string& out, std::uint64_t value);
/// Appends the IEEE-754 bit pattern; NaN payloads round-trip unchanged.
void put_f64(std::string& out, double value);

/// Reads from `bytes` at `offset`; the caller guarantees the range.
[[nodiscard]] std::uint32_t get_u32(std::string_view bytes, std::size_t offset) noexcept;
[[nodiscard]] std::uint64_t get_u64(std::string_view bytes, std::size_t offset) noexcept;
[[nodiscard]] double get_f64(std::string_view bytes, std::size_t offset) noexcept;

// ---- record codec ------------------------------------------------------
//
// The 28-byte incident record is the wire format of the whole toolkit:
// shard blocks on disk and qrn-serve classify payloads on the socket are
// both sequences of exactly these bytes, so a client can stream records
// that land in a shard bit-identically.

/// Appends the kRecordBytes encoding of one incident.
void encode_record(std::string& out, const Incident& incident);

/// Names the source of a record in decode errors: "<label>" or
/// "<label> <index>" (a shard path; "classify record 3"). The text is
/// built only when a record fails, so a hot decode loop never allocates
/// for it. `label` must outlive the decode call.
struct RecordContext {
    std::string_view label;
    std::optional<std::size_t> index;

    [[nodiscard]] std::string str() const;
};

/// Decodes the record at `offset`; the caller guarantees kRecordBytes are
/// available. `context` prefixes error messages. Throws
/// StoreError(Inconsistent) on out-of-range enum bytes or records
/// violating qrn::validate().
[[nodiscard]] Incident decode_record(std::string_view bytes, std::size_t offset,
                                     const RecordContext& context);

/// Decodes the `count` records at the start of `bytes` (the caller
/// guarantees count * kRecordBytes are available) and appends them to
/// `out`: one pass of inline loads, with the enum-byte ranges and
/// qrn::violation() checked for every record. On the first bad record
/// `out` is restored to its old size and decode_record's StoreError for
/// that record is thrown, kind and text alike.
void decode_block(std::string_view bytes, std::uint32_t count, IncidentColumns& out,
                  const RecordContext& context);

}  // namespace qrn::store
