// IncidentColumns: the SoA <-> AoS seam of the incident pipeline. These
// tests pin the round-trip equivalence the refactor rests on - any row
// pushed into the columns must come back field-exact through operator[] -
// plus the one-pass evidence scan against the per-type reference count.
#include "qrn/incident_columns.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "qrn/incident.h"
#include "qrn/incident_type.h"
#include "stats/rng.h"

namespace qrn {
namespace {

/// A deterministic mixed bag of incidents: every actor pairing, both
/// mechanisms, induced and ego-involved rows.
std::vector<Incident> sample_rows(std::uint64_t seed, std::size_t n) {
    std::vector<Incident> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        stats::Rng rng = stats::Rng::stream(seed, i);
        Incident incident;
        incident.second = actor_type_from_index(
            static_cast<std::size_t>(rng.uniform_int(1, kActorTypeCount - 1)));
        if (rng.bernoulli(0.4)) {
            incident.mechanism = IncidentMechanism::NearMiss;
            incident.min_distance_m = rng.uniform(0.0, 5.0);
        }
        if (rng.bernoulli(0.2)) {
            incident.first = ActorType::Car;
            incident.ego_causing_factor = true;
        }
        incident.relative_speed_kmh = rng.uniform(0.0, 150.0);
        incident.timestamp_hours = rng.uniform(0.0, 1e4);
        rows.push_back(incident);
    }
    return rows;
}

IncidentColumns columns_of(const std::vector<Incident>& rows) {
    IncidentColumns columns;
    columns.reserve(rows.size());
    for (const Incident& row : rows) columns.push_back(row);
    return columns;
}

void expect_row_equal(const Incident& a, const Incident& b, std::size_t i) {
    EXPECT_EQ(a.first, b.first) << "row " << i;
    EXPECT_EQ(a.second, b.second) << "row " << i;
    EXPECT_EQ(a.mechanism, b.mechanism) << "row " << i;
    EXPECT_EQ(a.relative_speed_kmh, b.relative_speed_kmh) << "row " << i;
    EXPECT_EQ(a.min_distance_m, b.min_distance_m) << "row " << i;
    EXPECT_EQ(a.ego_causing_factor, b.ego_causing_factor) << "row " << i;
    EXPECT_EQ(a.timestamp_hours, b.timestamp_hours) << "row " << i;
}

TEST(IncidentColumns, RoundTripsEveryFieldExactly) {
    const auto rows = sample_rows(11, 500);
    const auto columns = columns_of(rows);
    ASSERT_EQ(columns.size(), rows.size());
    std::vector<Incident> back;
    for (std::size_t i = 0; i < columns.size(); ++i) {
        back.push_back(columns[i]);
        expect_row_equal(columns[i], rows[i], i);
    }
    // And the reverse seam: columns -> rows -> columns is identity.
    EXPECT_EQ(columns_of(back), columns);
}

TEST(IncidentColumns, PushBackMatchesEmplaceBack) {
    const auto rows = sample_rows(12, 64);
    IncidentColumns emplaced;
    for (const Incident& row : rows) {
        emplaced.emplace_back(row.first, row.second, row.mechanism,
                              row.relative_speed_kmh, row.min_distance_m,
                              row.ego_causing_factor, row.timestamp_hours);
    }
    EXPECT_EQ(emplaced, columns_of(rows));
}

TEST(IncidentColumns, AppendConcatenatesInOrder) {
    const auto rows_a = sample_rows(13, 40);
    const auto rows_b = sample_rows(14, 25);
    auto combined_rows = rows_a;
    combined_rows.insert(combined_rows.end(), rows_b.begin(), rows_b.end());

    auto columns = columns_of(rows_a);
    columns.append(columns_of(rows_b));
    EXPECT_EQ(columns, columns_of(combined_rows));
}

TEST(IncidentColumns, ColumnsStayEqualLength) {
    const auto columns = columns_of(sample_rows(15, 33));
    const std::size_t n = columns.size();
    EXPECT_EQ(columns.firsts().size(), n);
    EXPECT_EQ(columns.seconds().size(), n);
    EXPECT_EQ(columns.mechanisms().size(), n);
    EXPECT_EQ(columns.induced_flags().size(), n);
    EXPECT_EQ(columns.relative_speeds_kmh().size(), n);
    EXPECT_EQ(columns.min_distances_m().size(), n);
    EXPECT_EQ(columns.timestamps_hours().size(), n);
}

TEST(IncidentColumns, ClearEmptiesAllColumns) {
    auto columns = columns_of(sample_rows(17, 8));
    ASSERT_FALSE(columns.empty());
    columns.clear();
    EXPECT_TRUE(columns.empty());
    EXPECT_EQ(columns, IncidentColumns{});
}

TEST(CountMatchingAll, AgreesWithPerTypeReference) {
    const auto types = IncidentTypeSet::paper_vru_example();
    // Force plenty of VRU rows so every type accumulates real counts.
    auto rows = sample_rows(18, 2000);
    for (std::size_t i = 0; i < rows.size(); i += 2) {
        rows[i].second = ActorType::Vru;
    }
    const auto columns = columns_of(rows);

    const auto counts = count_matching_all(columns, types);
    ASSERT_EQ(counts.size(), types.size());
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < types.size(); ++k) {
        // Reference: the naive one-type-at-a-time scan over the rows.
        const std::uint64_t expected = static_cast<std::uint64_t>(
            std::count_if(rows.begin(), rows.end(), [&](const Incident& r) {
                return types.at(k).matches(r);
            }));
        EXPECT_EQ(counts[k], expected) << "type " << types.at(k).id();
        total += counts[k];
    }
    EXPECT_GT(total, 0u);
}

TEST(CountMatchingAll, EmptyColumnsYieldZeroes) {
    const auto counts =
        count_matching_all(IncidentColumns{}, IncidentTypeSet::paper_vru_example());
    for (const std::uint64_t c : counts) EXPECT_EQ(c, 0u);
}

}  // namespace
}  // namespace qrn
