#include "qrn/incident_columns.h"

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

std::vector<std::uint64_t> count_matching_all(const IncidentColumns& columns,
                                              const IncidentTypeSet& types) {
    const std::size_t type_count = types.size();
    std::vector<std::uint64_t> counts(type_count, 0);
    // Resolve the type list once so the row loop is a flat pointer walk.
    std::vector<const IncidentType*> resolved;
    resolved.reserve(type_count);
    for (std::size_t k = 0; k < type_count; ++k) resolved.push_back(&types.at(k));
    const std::size_t n = columns.size();
    for (std::size_t i = 0; i < n; ++i) {
        // One row materialization amortized over all K predicates - the
        // record data streams through cache once however many types the
        // norm carries.
        const Incident incident = columns[i];
        for (std::size_t k = 0; k < type_count; ++k) {
            if (resolved[k]->matches(incident)) ++counts[k];
        }
    }
    return counts;
}

}  // namespace qrn
