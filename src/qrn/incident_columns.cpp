#include "qrn/incident_columns.h"

#include <algorithm>
#include <stdexcept>

#include "qrn/incident_type.h"

namespace qrn {

void IncidentColumns::reserve(std::size_t n) {
    firsts_.reserve(n);
    seconds_.reserve(n);
    mechanisms_.reserve(n);
    induced_.reserve(n);
    relative_speed_kmh_.reserve(n);
    min_distance_m_.reserve(n);
    timestamp_hours_.reserve(n);
}

void IncidentColumns::clear() noexcept {
    firsts_.clear();
    seconds_.clear();
    mechanisms_.clear();
    induced_.clear();
    relative_speed_kmh_.clear();
    min_distance_m_.clear();
    timestamp_hours_.clear();
}

void IncidentColumns::push_back(const Incident& incident) {
    emplace_back(incident.first, incident.second, incident.mechanism,
                 incident.relative_speed_kmh, incident.min_distance_m,
                 incident.ego_causing_factor, incident.timestamp_hours);
}

void IncidentColumns::emplace_back(ActorType first, ActorType second,
                                   IncidentMechanism mechanism,
                                   double relative_speed_kmh, double min_distance_m,
                                   bool ego_causing_factor, double timestamp_hours) {
    firsts_.push_back(static_cast<std::uint8_t>(first));
    seconds_.push_back(static_cast<std::uint8_t>(second));
    mechanisms_.push_back(static_cast<std::uint8_t>(mechanism));
    induced_.push_back(ego_causing_factor ? 1 : 0);
    relative_speed_kmh_.push_back(relative_speed_kmh);
    min_distance_m_.push_back(min_distance_m);
    timestamp_hours_.push_back(timestamp_hours);
}

IncidentColumns::RowSlots IncidentColumns::grow(std::size_t n) {
    const std::size_t at = size();
    firsts_.resize(at + n);
    seconds_.resize(at + n);
    mechanisms_.resize(at + n);
    induced_.resize(at + n);
    relative_speed_kmh_.resize(at + n);
    min_distance_m_.resize(at + n);
    timestamp_hours_.resize(at + n);
    return {firsts_.data() + at,         seconds_.data() + at,
            mechanisms_.data() + at,     induced_.data() + at,
            relative_speed_kmh_.data() + at, min_distance_m_.data() + at,
            timestamp_hours_.data() + at};
}

void IncidentColumns::truncate(std::size_t n) noexcept {
    if (n >= size()) return;
    firsts_.resize(n);
    seconds_.resize(n);
    mechanisms_.resize(n);
    induced_.resize(n);
    relative_speed_kmh_.resize(n);
    min_distance_m_.resize(n);
    timestamp_hours_.resize(n);
}

Incident IncidentColumns::operator[](std::size_t index) const {
    Incident incident;
    incident.first = static_cast<ActorType>(firsts_[index]);
    incident.second = static_cast<ActorType>(seconds_[index]);
    incident.mechanism = static_cast<IncidentMechanism>(mechanisms_[index]);
    incident.relative_speed_kmh = relative_speed_kmh_[index];
    incident.min_distance_m = min_distance_m_[index];
    incident.ego_causing_factor = induced_[index] != 0;
    incident.timestamp_hours = timestamp_hours_[index];
    return incident;
}

void IncidentColumns::append(const IncidentColumns& other) {
    firsts_.insert(firsts_.end(), other.firsts_.begin(), other.firsts_.end());
    seconds_.insert(seconds_.end(), other.seconds_.begin(), other.seconds_.end());
    mechanisms_.insert(mechanisms_.end(), other.mechanisms_.begin(),
                       other.mechanisms_.end());
    induced_.insert(induced_.end(), other.induced_.begin(), other.induced_.end());
    relative_speed_kmh_.insert(relative_speed_kmh_.end(),
                               other.relative_speed_kmh_.begin(),
                               other.relative_speed_kmh_.end());
    min_distance_m_.insert(min_distance_m_.end(), other.min_distance_m_.begin(),
                           other.min_distance_m_.end());
    timestamp_hours_.insert(timestamp_hours_.end(), other.timestamp_hours_.begin(),
                            other.timestamp_hours_.end());
}

void add_matching_counts(const IncidentColumns& columns, const IncidentTypeSet& types,
                         std::span<std::uint64_t> counts) {
    if (counts.size() != types.size()) {
        throw std::invalid_argument("add_matching_counts: one count per incident type");
    }
    const std::uint8_t* firsts = columns.firsts().data();
    const std::uint8_t* seconds = columns.seconds().data();
    const std::uint8_t* mechanisms = columns.mechanisms().data();
    const std::uint8_t* induced = columns.induced_flags().data();
    const double* speeds = columns.relative_speeds_kmh().data();
    const double* distances = columns.min_distances_m().data();
    // A tile of every column fits in L1, so each type re-walks cached rows.
    constexpr std::size_t kTileRows = 1024;
    const std::size_t n = columns.size();
    for (std::size_t begin = 0; begin < n; begin += kTileRows) {
        const std::size_t end = std::min(n, begin + kTileRows);
        for (std::size_t k = 0; k < counts.size(); ++k) {
            const TypeMatcher& matcher = types.all()[k].matcher();
            std::uint64_t hits = 0;
            for (std::size_t i = begin; i < end; ++i) {
                hits += matcher.matches(static_cast<ActorType>(firsts[i]),
                                        static_cast<ActorType>(seconds[i]),
                                        static_cast<IncidentMechanism>(mechanisms[i]),
                                        induced[i] != 0, speeds[i], distances[i])
                            ? 1
                            : 0;
            }
            counts[k] += hits;
        }
    }
}

std::vector<std::uint64_t> count_matching_all(const IncidentColumns& columns,
                                              const IncidentTypeSet& types) {
    std::vector<std::uint64_t> counts(types.size(), 0);
    add_matching_counts(columns, types, counts);
    return counts;
}

}  // namespace qrn
