// Minimal self-contained JSON document model, writer and parser.
//
// The toolkit exchanges safety-case artifacts (risk norms, incident-type
// catalogs, allocations, verification reports) as JSON files so they can be
// reviewed, diffed and versioned alongside the safety case. No external
// dependency is used; this is a small, strict (RFC 8259 subset) recursive-
// descent implementation sufficient for those artifacts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace qrn::json {

class Value;
using Array = std::vector<Value>;
/// Objects preserve insertion order so serialized artifacts diff stably.
using Object = std::vector<std::pair<std::string, Value>>;

/// One JSON value (null / bool / number / string / array / object).
class Value {
public:
    Value() : data_(nullptr) {}
    Value(std::nullptr_t) : data_(nullptr) {}
    Value(bool b) : data_(b) {}
    Value(double d) : data_(d) {}
    Value(int i) : data_(static_cast<double>(i)) {}
    Value(std::size_t n) : data_(static_cast<double>(n)) {}
    Value(const char* s) : data_(std::string(s)) {}
    Value(std::string s) : data_(std::move(s)) {}
    Value(Array a) : data_(std::move(a)) {}
    Value(Object o) : data_(std::move(o)) {}

    [[nodiscard]] bool is_null() const noexcept;
    [[nodiscard]] bool is_bool() const noexcept;
    [[nodiscard]] bool is_number() const noexcept;
    [[nodiscard]] bool is_string() const noexcept;
    [[nodiscard]] bool is_array() const noexcept;
    [[nodiscard]] bool is_object() const noexcept;

    /// Typed accessors; throw std::runtime_error on kind mismatch.
    [[nodiscard]] bool as_bool() const;
    [[nodiscard]] double as_number() const;
    [[nodiscard]] const std::string& as_string() const;
    [[nodiscard]] const Array& as_array() const;
    [[nodiscard]] const Object& as_object() const;

    /// The number as an unsigned integer when it is integral and in
    /// [0, 2^53], where every such double is exact; nullopt for any other
    /// number and for a non-number. Reading a count or an index from
    /// outside input goes through here, never through a raw cast.
    [[nodiscard]] std::optional<std::uint64_t> as_exact_u64() const noexcept;

    /// Object member lookup; throws std::runtime_error when absent.
    [[nodiscard]] const Value& at(const std::string& key) const;
    /// True iff this is an object containing the key.
    [[nodiscard]] bool contains(const std::string& key) const noexcept;

    /// Serializes the value. `indent` > 0 pretty-prints with that many
    /// spaces per level.
    [[nodiscard]] std::string dump(int indent = 0) const;

    /// Appends the serialization to `out` as it appears `depth` levels
    /// deep inside a document dumped with `indent`, so a large document
    /// can be rendered one element at a time.
    void dump_to(std::string& out, int indent, int depth) const;

private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object> data_;
};

/// Parses a complete JSON document; trailing non-whitespace is an error.
/// Throws std::runtime_error with a byte offset on malformed input.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace qrn::json
