// IncidentColumns: the SoA <-> AoS seam of the incident pipeline. These
// tests pin the round-trip equivalence the refactor rests on - any row
// pushed into the columns must come back field-exact through operator[] -
// plus the one-pass evidence scan against the per-type reference count.
#include "qrn/incident_columns.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
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

// ---- the flat matcher against the definition ----------------------------

/// The match rule as Sec. III-B states it, written independently of
/// TypeMatcher: ego-involved types need ego as a party and the other party
/// equal to the counterparty; induced types need the induced flag and the
/// unordered third-party pair; both need the tolerance margin.
bool reference_matches(const IncidentType& type, const Incident& incident) {
    if (type.is_induced()) {
        if (!incident.ego_causing_factor) return false;
        const bool pair =
            (incident.first == type.counterparty() &&
             incident.second == type.second_party()) ||
            (incident.first == type.second_party() && incident.second == type.counterparty());
        return pair && type.margin().matches(incident);
    }
    if (!incident.involves_ego()) return false;
    const ActorType other =
        incident.first == ActorType::EgoVehicle ? incident.second : incident.first;
    return other == type.counterparty() && type.margin().matches(incident);
}

/// Ego<->Car impact bands up to +inf, an Ego<->Car proximity band, and
/// induced Car<->VRU / Truck<->Car types.
IncidentTypeSet catalog_with_induced_types() {
    const double inf = std::numeric_limits<double>::infinity();
    return IncidentTypeSet({
        IncidentType("V1", ActorType::Vru, ToleranceMargin::proximity(1.0, 10.0)),
        IncidentType("V2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0)),
        IncidentType("V3", ActorType::Vru, ToleranceMargin::impact_speed(10.0, 70.0)),
        IncidentType("C1", ActorType::Car, ToleranceMargin::impact_speed(0.0, 30.0)),
        IncidentType("C2", ActorType::Car, ToleranceMargin::impact_speed(30.0, inf)),
        IncidentType("C3", ActorType::Car, ToleranceMargin::proximity(2.0, 20.0)),
        IncidentType::induced("X1", ActorType::Car, ActorType::Vru,
                              ToleranceMargin::impact_speed(0.0, 50.0)),
        IncidentType::induced("X2", ActorType::Car, ActorType::Vru,
                              ToleranceMargin::impact_speed(50.0, inf)),
        IncidentType::induced("X3", ActorType::Truck, ActorType::Car,
                              ToleranceMargin::proximity(1.5, 5.0)),
    });
}

/// Valid incidents whose speeds and distances sit on the band edges above
/// as often as off them: lower bounds (exclusive), upper bounds
/// (inclusive), the largest finite speed under a +inf bound, distances
/// equal to max_distance_m and speeds equal to min_speed_kmh. Induced rows
/// put their third parties in both orders.
std::vector<Incident> edge_corpus(std::uint64_t seed, std::size_t n) {
    const std::vector<double> edge_speeds = {
        0.0, 5.0, 10.0, 20.0, 30.0, 50.0, 70.0, std::nextafter(10.0, 0.0),
        std::nextafter(70.0, 100.0), std::numeric_limits<double>::max()};
    const std::vector<double> edge_distances = {0.0, 1.0, 1.5, 2.0,
                                                std::nextafter(1.0, 0.0), 3.0};
    std::vector<Incident> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        stats::Rng rng = stats::Rng::stream(seed, i);
        const auto pick = [&rng](const std::vector<double>& values) {
            return values[static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
        };
        const auto party = [&rng] {
            return actor_type_from_index(
                static_cast<std::size_t>(rng.uniform_int(1, kActorTypeCount - 1)));
        };
        Incident incident;
        if (rng.bernoulli(0.3)) {
            incident.first = party();
            incident.second = party();
            incident.ego_causing_factor = true;
        } else if (rng.bernoulli(0.5)) {
            incident.second = party();
        } else {
            incident.first = party();
            incident.second = ActorType::EgoVehicle;
        }
        incident.relative_speed_kmh =
            rng.bernoulli(0.5) ? pick(edge_speeds) : rng.uniform(0.0, 150.0);
        if (rng.bernoulli(0.4)) {
            incident.mechanism = IncidentMechanism::NearMiss;
            incident.min_distance_m =
                rng.bernoulli(0.5) ? pick(edge_distances) : rng.uniform(0.0, 4.0);
        }
        incident.timestamp_hours = rng.uniform(0.0, 1e4);
        rows.push_back(incident);
    }
    return rows;
}

void expect_matcher_agrees_with_per_type_loop(const IncidentTypeSet& types,
                                              const std::vector<Incident>& rows) {
    for (const Incident& row : rows) ASSERT_EQ(violation(row), nullptr) << describe(row);
    const auto counts = count_matching_all(columns_of(rows), types);
    ASSERT_EQ(counts.size(), types.size());
    for (std::size_t k = 0; k < types.size(); ++k) {
        std::uint64_t by_matches = 0;
        std::uint64_t by_definition = 0;
        for (const Incident& row : rows) {
            const bool matched = types.at(k).matches(row);
            EXPECT_EQ(matched, reference_matches(types.at(k), row))
                << types.at(k).id() << ": " << describe(row);
            by_matches += matched ? 1 : 0;
            by_definition += reference_matches(types.at(k), row) ? 1 : 0;
        }
        EXPECT_EQ(counts[k], by_matches) << "type " << types.at(k).id();
        EXPECT_EQ(counts[k], by_definition) << "type " << types.at(k).id();
        EXPECT_GT(counts[k], 0u) << "type " << types.at(k).id() << " never matched";
    }
}

TEST(CountMatchingAll, FlatMatcherAgreesOnBandEdgesForThePaperTypes) {
    auto rows = edge_corpus(31, 12000);
    // Most ego rows meet a VRU, so every paper type sees its edges.
    for (std::size_t i = 0; i < rows.size(); i += 2) {
        if (!rows[i].ego_causing_factor) {
            (rows[i].first == ActorType::EgoVehicle ? rows[i].second : rows[i].first) =
                ActorType::Vru;
        }
    }
    expect_matcher_agrees_with_per_type_loop(IncidentTypeSet::paper_vru_example(), rows);
}

TEST(CountMatchingAll, FlatMatcherAgreesOnACatalogWithInducedTypes) {
    expect_matcher_agrees_with_per_type_loop(catalog_with_induced_types(),
                                             edge_corpus(32, 12000));
}

TEST(CountMatchingAll, AddMatchingCountsAccumulatesAcrossBlocks) {
    // A fold over blocks sums into one tally: equal to one pass over all rows.
    const auto types = catalog_with_induced_types();
    const auto rows = edge_corpus(33, 3000);
    std::vector<std::uint64_t> tally(types.size(), 0);
    for (std::size_t begin = 0; begin < rows.size(); begin += 512) {
        const std::size_t end = std::min(rows.size(), begin + 512);
        add_matching_counts(
            columns_of(std::vector<Incident>(rows.begin() + static_cast<std::ptrdiff_t>(begin),
                                             rows.begin() + static_cast<std::ptrdiff_t>(end))),
            types, tally);
    }
    EXPECT_EQ(tally, count_matching_all(columns_of(rows), types));
    std::vector<std::uint64_t> wrong_size(types.size() + 1, 0);
    EXPECT_THROW(add_matching_counts(columns_of(rows), types, wrong_size),
                 std::invalid_argument);
}

}  // namespace
}  // namespace qrn
