// Struct-of-arrays incident storage: the native in-memory layout of the
// incident pipeline.
//
// Every layer that touches incidents in bulk - the fleet simulator's
// accumulation loop, the campaign aggregators, the evidence scans and the
// qrn-store shard codec - iterates over *columns*, not records. The seven
// columns mirror the store's 28-byte v1 record field for field (four u8
// fields, three IEEE-754 doubles; docs/STORE.md), so a shard writer can
// serialize a column run without materializing a single Incident and a
// reader can decode straight back into columns. The row-oriented Incident
// struct (incident.h) remains the unit of *observation* - single records
// cross API boundaries as Incident; bulk data lives here.
//
// Invariant: all seven columns always have equal length; only the member
// functions below mutate them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "qrn/incident.h"

namespace qrn {

class IncidentTypeSet;

/// Parallel columns of incident records (one entry per incident).
class IncidentColumns {
public:
    IncidentColumns() = default;

    [[nodiscard]] std::size_t size() const noexcept { return firsts_.size(); }
    [[nodiscard]] bool empty() const noexcept { return firsts_.empty(); }

    void reserve(std::size_t n);
    void clear() noexcept;

    /// Appends one record (row -> columns).
    void push_back(const Incident& incident);

    /// Appends one record from raw fields, skipping the Incident
    /// round-trip; the caller guarantees the same invariants `validate`
    /// checks (the simulator validates before emplacing).
    void emplace_back(ActorType first, ActorType second, IncidentMechanism mechanism,
                      double relative_speed_kmh, double min_distance_m,
                      bool ego_causing_factor, double timestamp_hours);

    /// Where `grow` put the new rows: one pointer per column.
    struct RowSlots {
        std::uint8_t* firsts;
        std::uint8_t* seconds;
        std::uint8_t* mechanisms;
        std::uint8_t* induced_flags;
        double* relative_speeds_kmh;
        double* min_distances_m;
        double* timestamps_hours;
    };

    /// Appends `n` zeroed rows to every column and returns where they
    /// start, for bulk decoders that fill rows in place
    /// (store::decode_block). The caller owes each row the invariants
    /// `validate` checks, or truncates the rows away again.
    [[nodiscard]] RowSlots grow(std::size_t n);

    /// Keeps the first `n` rows (no-op when n >= size()).
    void truncate(std::size_t n) noexcept;

    /// Materializes row `index` (columns -> row). No bounds check beyond
    /// the debug assert of the underlying vectors.
    [[nodiscard]] Incident operator[](std::size_t index) const;

    /// Appends every row of `other` in order (columnar memcpy-style).
    void append(const IncidentColumns& other);

    friend bool operator==(const IncidentColumns&, const IncidentColumns&) = default;

    // ---- column views (hot scans read these directly) -------------------
    [[nodiscard]] const std::vector<std::uint8_t>& firsts() const noexcept { return firsts_; }
    [[nodiscard]] const std::vector<std::uint8_t>& seconds() const noexcept { return seconds_; }
    [[nodiscard]] const std::vector<std::uint8_t>& mechanisms() const noexcept { return mechanisms_; }
    [[nodiscard]] const std::vector<std::uint8_t>& induced_flags() const noexcept { return induced_; }
    [[nodiscard]] const std::vector<double>& relative_speeds_kmh() const noexcept { return relative_speed_kmh_; }
    [[nodiscard]] const std::vector<double>& min_distances_m() const noexcept { return min_distance_m_; }
    [[nodiscard]] const std::vector<double>& timestamps_hours() const noexcept { return timestamp_hours_; }

private:
    std::vector<std::uint8_t> firsts_;
    std::vector<std::uint8_t> seconds_;
    std::vector<std::uint8_t> mechanisms_;
    std::vector<std::uint8_t> induced_;
    std::vector<double> relative_speed_kmh_;
    std::vector<double> min_distance_m_;
    std::vector<double> timestamp_hours_;
};

/// Adds to counts[k] the number of rows matching types.at(k), for every k
/// (counts.size() must equal types.size()). Walks the columns against each
/// type's TypeMatcher without materializing a row, one cache-sized tile at
/// a time: the record data streams through cache once however many types
/// the norm carries. Folds that sum many blocks (shard scans) accumulate
/// into one tally with no allocation per block.
void add_matching_counts(const IncidentColumns& columns, const IncidentTypeSet& types,
                         std::span<std::uint64_t> counts);

/// All per-type match counts in one pass over the columns (index k of the
/// result counts incidents matching types.at(k)).
[[nodiscard]] std::vector<std::uint64_t> count_matching_all(
    const IncidentColumns& columns, const IncidentTypeSet& types);

}  // namespace qrn
