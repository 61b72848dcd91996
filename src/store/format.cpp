#include "store/format.h"

#include <bit>
#include <cstring>
#include <exception>

namespace qrn::store {

std::string_view to_string(StoreErrorKind kind) noexcept {
    switch (kind) {
        case StoreErrorKind::Io: return "io";
        case StoreErrorKind::BadMagic: return "bad-magic";
        case StoreErrorKind::BadVersion: return "bad-version";
        case StoreErrorKind::Truncated: return "truncated";
        case StoreErrorKind::Checksum: return "checksum";
        case StoreErrorKind::Inconsistent: return "inconsistent";
    }
    return "unknown";
}

// Built with append: GCC 12 at -O3 reports a -Wrestrict false positive
// for the inlined `const char* + std::string&&` form.
StoreError::StoreError(StoreErrorKind kind, const std::string& message)
    : std::runtime_error(
          std::string("[").append(to_string(kind)).append("] ").append(message)),
      kind_(kind) {}

namespace {

/// Writes the low `N` bytes of `value` little-endian into `dst`.
template <std::size_t N>
void store_le(char* dst, std::uint64_t value) noexcept {
    for (std::size_t i = 0; i < N; ++i) {
        dst[i] = static_cast<char>((value >> (8 * i)) & 0xFFu);
    }
}

}  // namespace

void put_u32(std::string& out, std::uint32_t value) {
    char bytes[4];
    store_le<4>(bytes, value);
    out.append(bytes, sizeof bytes);
}

void put_u64(std::string& out, std::uint64_t value) {
    char bytes[8];
    store_le<8>(bytes, value);
    out.append(bytes, sizeof bytes);
}

void put_f64(std::string& out, double value) {
    put_u64(out, std::bit_cast<std::uint64_t>(value));
}

namespace {

/// Reads a little-endian unsigned integer: one unaligned load on
/// little-endian hosts, byte assembly elsewhere.
template <typename T>
T load_le(std::string_view bytes, std::size_t offset) noexcept {
    T value = 0;
    if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&value, bytes.data() + offset, sizeof value);
    } else {
        for (std::size_t i = 0; i < sizeof value; ++i) {
            value |= static_cast<T>(static_cast<unsigned char>(bytes[offset + i])) << (8 * i);
        }
    }
    return value;
}

}  // namespace

std::uint32_t get_u32(std::string_view bytes, std::size_t offset) noexcept {
    return load_le<std::uint32_t>(bytes, offset);
}

std::uint64_t get_u64(std::string_view bytes, std::size_t offset) noexcept {
    return load_le<std::uint64_t>(bytes, offset);
}

double get_f64(std::string_view bytes, std::size_t offset) noexcept {
    return std::bit_cast<double>(get_u64(bytes, offset));
}

void encode_record(std::string& out, const Incident& incident) {
    char bytes[kRecordBytes];
    bytes[0] = static_cast<char>(incident.first);
    bytes[1] = static_cast<char>(incident.second);
    bytes[2] = static_cast<char>(incident.mechanism);
    bytes[3] = static_cast<char>(incident.ego_causing_factor ? 1 : 0);
    store_le<8>(bytes + 4, std::bit_cast<std::uint64_t>(incident.relative_speed_kmh));
    store_le<8>(bytes + 12, std::bit_cast<std::uint64_t>(incident.min_distance_m));
    store_le<8>(bytes + 20, std::bit_cast<std::uint64_t>(incident.timestamp_hours));
    out.append(bytes, sizeof bytes);
}

std::string RecordContext::str() const {
    std::string out(label);
    if (index) out.append(" ").append(std::to_string(*index));
    return out;
}

namespace {

/// Reads the record at `offset` into `incident`. False, with `incident`
/// untouched, when an actor, mechanism or flag byte names no known value.
bool read_record(std::string_view bytes, std::size_t offset, Incident& incident) noexcept {
    const auto first = static_cast<unsigned char>(bytes[offset]);
    const auto second = static_cast<unsigned char>(bytes[offset + 1]);
    const auto mechanism = static_cast<unsigned char>(bytes[offset + 2]);
    const auto flags = static_cast<unsigned char>(bytes[offset + 3]);
    if (first >= kActorTypeCount || second >= kActorTypeCount || mechanism > 1 ||
        flags > 1) {
        return false;
    }
    incident.first = static_cast<ActorType>(first);
    incident.second = static_cast<ActorType>(second);
    incident.mechanism = static_cast<IncidentMechanism>(mechanism);
    incident.ego_causing_factor = flags != 0;
    incident.relative_speed_kmh = get_f64(bytes, offset + 4);
    incident.min_distance_m = get_f64(bytes, offset + 12);
    incident.timestamp_hours = get_f64(bytes, offset + 20);
    return true;
}

}  // namespace

Incident decode_record(std::string_view bytes, std::size_t offset,
                       const RecordContext& context) {
    Incident incident;
    if (!read_record(bytes, offset, incident)) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         context.str() + ": record field out of range (actor/mechanism/"
                                   "flag byte does not name a known value)");
    }
    try {
        validate(incident);
    } catch (const std::exception& error) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         context.str() + ": record violates incident invariants: " +
                             error.what());
    }
    return incident;
}

void decode_block(std::string_view bytes, std::uint32_t count, IncidentColumns& out,
                  const RecordContext& context) {
    const std::size_t base = out.size();
    const IncidentColumns::RowSlots rows = out.grow(count);
    for (std::uint32_t r = 0; r < count; ++r) {
        const std::size_t offset = static_cast<std::size_t>(r) * kRecordBytes;
        Incident incident;
        if (!read_record(bytes, offset, incident) || violation(incident) != nullptr) {
            // The slow decoder words the error, so a bad record reads the
            // same whichever path met it.
            out.truncate(base);
            (void)decode_record(bytes, offset, context);
            throw std::logic_error("decode_block: decode_record accepted a rejected record");
        }
        rows.firsts[r] = static_cast<std::uint8_t>(incident.first);
        rows.seconds[r] = static_cast<std::uint8_t>(incident.second);
        rows.mechanisms[r] = static_cast<std::uint8_t>(incident.mechanism);
        rows.induced_flags[r] = incident.ego_causing_factor ? 1 : 0;
        rows.relative_speeds_kmh[r] = incident.relative_speed_kmh;
        rows.min_distances_m[r] = incident.min_distance_m;
        rows.timestamps_hours[r] = incident.timestamp_hours;
    }
}

}  // namespace qrn::store
