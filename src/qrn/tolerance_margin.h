// Tolerance margins: the quantitative part of an incident-type definition.
//
// Sec. III-B: "many of the incident types can be defined as an interaction
// between ego vehicle and <object_type> within <tolerance_margin>. ... The
// <tolerance_margin> is for accidents telling the impact speed, and for
// quality-related incidents limits for distance and corresponding relative
// speed." A margin is therefore either an impact-speed band over collisions
// or a proximity band (distance below a threshold while closing faster than
// a threshold) over near misses.
#pragma once

#include <string>
#include <variant>

#include "qrn/incident.h"

namespace qrn {

/// Impact-speed band for collisions: lower < delta-v <= upper (km/h).
/// A half-open band (lo, hi] makes adjacent bands like (0,10] and (10,70]
/// mutually exclusive by construction, as the paper's I2/I3 example needs.
struct ImpactSpeedBand {
    double lower_kmh = 0.0;   ///< Exclusive lower bound.
    double upper_kmh = 0.0;   ///< Inclusive upper bound; may be +infinity.

    [[nodiscard]] bool contains(double delta_v_kmh) const noexcept {
        return (delta_v_kmh > lower_kmh) & (delta_v_kmh <= upper_kmh);
    }
};

/// Proximity band for quality incidents: separation strictly below
/// `max_distance_m` while the closing speed exceeds `min_speed_kmh`
/// (the paper's I1: "Ego approaches the VRU with > 10 km/h when closer
/// than 1 m").
struct ProximityBand {
    double max_distance_m = 0.0;  ///< Exclusive upper bound on separation.
    double min_speed_kmh = 0.0;   ///< Exclusive lower bound on closing speed.

    [[nodiscard]] bool contains(double distance_m, double speed_kmh) const noexcept {
        return (distance_m < max_distance_m) & (speed_kmh > min_speed_kmh);
    }
};

/// A tolerance margin is one of the two band kinds.
class ToleranceMargin {
public:
    /// Collision margin. Requires 0 <= lower < upper.
    [[nodiscard]] static ToleranceMargin impact_speed(double lower_kmh, double upper_kmh);

    /// Near-miss margin. Requires max_distance_m > 0 and min_speed_kmh >= 0.
    [[nodiscard]] static ToleranceMargin proximity(double max_distance_m,
                                                   double min_speed_kmh);

    /// Which incident mechanism this margin applies to.
    [[nodiscard]] IncidentMechanism mechanism() const noexcept;

    /// True iff the incident's mechanism matches and its measurements fall
    /// inside the band.
    [[nodiscard]] bool matches(const Incident& incident) const noexcept;

    /// The underlying band, for reporting. Throws std::bad_variant_access
    /// when asked for the wrong kind.
    [[nodiscard]] const ImpactSpeedBand& impact_band() const;
    [[nodiscard]] const ProximityBand& proximity_band() const;

    /// Rendering in the paper's SG style, e.g. "0 < dv <= 10 km/h" or
    /// "d < 1 m & dv > 10 km/h".
    [[nodiscard]] std::string to_string() const;

    /// True when the two margins cannot match the same incident (different
    /// mechanisms, or disjoint speed bands). Used by the MECE checker.
    [[nodiscard]] bool disjoint_with(const ToleranceMargin& other) const noexcept;

private:
    explicit ToleranceMargin(ImpactSpeedBand band) : band_(band) {}
    explicit ToleranceMargin(ProximityBand band) : band_(band) {}
    std::variant<ImpactSpeedBand, ProximityBand> band_;
};

}  // namespace qrn
