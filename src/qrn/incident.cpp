#include "qrn/incident.h"

#include <array>
#include <cstdio>
#include <stdexcept>

namespace qrn {

std::string_view to_string(ActorType type) noexcept {
    switch (type) {
        case ActorType::EgoVehicle: return "Ego";
        case ActorType::Car: return "Car";
        case ActorType::Truck: return "Truck";
        case ActorType::Vru: return "VRU";
        case ActorType::Animal: return "Animal";
        case ActorType::StaticObject: return "StaticObject";
        case ActorType::OtherActor: return "Other";
    }
    return "unknown";
}

ActorType actor_type_from_index(std::size_t index) {
    static constexpr std::array<ActorType, kActorTypeCount> kAll = {
        ActorType::EgoVehicle, ActorType::Car,          ActorType::Truck,
        ActorType::Vru,        ActorType::Animal,       ActorType::StaticObject,
        ActorType::OtherActor,
    };
    if (index >= kAll.size()) {
        throw std::out_of_range("actor_type_from_index: bad index");
    }
    return kAll[index];
}

std::string_view to_string(IncidentMechanism mechanism) noexcept {
    switch (mechanism) {
        case IncidentMechanism::Collision: return "collision";
        case IncidentMechanism::NearMiss: return "near-miss";
    }
    return "unknown";
}

void validate(const Incident& incident) {
    if (const char* reason = violation(incident)) throw std::invalid_argument(reason);
}

std::string describe(const Incident& incident) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s<->%s %s dv=%.1fkm/h dmin=%.2fm%s",
                  std::string(to_string(incident.first)).c_str(),
                  std::string(to_string(incident.second)).c_str(),
                  std::string(to_string(incident.mechanism)).c_str(),
                  incident.relative_speed_kmh, incident.min_distance_m,
                  incident.ego_causing_factor ? " (induced)" : "");
    return buf;
}

}  // namespace qrn
