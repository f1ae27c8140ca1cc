// Small string-formatting helpers (GCC 12 lacks <format>, so we keep a thin
// snprintf-backed layer used by the table printer and bench output).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wfe {

/// printf-style formatting into a std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-precision decimal rendering, e.g. fixed(3.14159, 2) == "3.14".
std::string fixed(double value, int precision);

/// Scientific rendering, e.g. sci(0.000123, 2) == "1.23e-04".
std::string sci(double value, int precision);

/// Human-readable byte count ("6.0 MiB").
std::string human_bytes(double bytes);

/// Human-readable duration ("1.25 s", "310 ms", "42 us").
std::string human_seconds(double seconds);

/// Join items with a separator.
std::string join(const std::vector<std::string>& items, const std::string& sep);

/// Parse all of `token` as a T (int, long long, std::uint64_t or double).
/// Empty when any character is left over ("12x", " 1", ""), the value is
/// outside T's range (so "-1" is no std::uint64_t), or a double is not
/// finite.
template <typename T>
std::optional<T> parse_number(std::string_view token);

/// parse_number for a command-line flag: stores the value in `out`, or
/// writes "bad value for FLAG: 'TOKEN'" to `err` and returns false. A value
/// outside [min, max] is out of range and reported the same way.
template <typename T>
bool parse_flag(std::string_view flag, std::string_view token, T& out,
                std::ostream& err,
                std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
                std::type_identity_t<T> max = std::numeric_limits<T>::max());

}  // namespace wfe
