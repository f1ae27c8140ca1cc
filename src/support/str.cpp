#include "support/str.hpp"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <type_traits>

namespace wfe {

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

std::string fixed(double value, int precision) {
  return strprintf("%.*f", precision, value);
}

std::string sci(double value, int precision) {
  return strprintf("%.*e", precision, value);
}

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  int u = 0;
  double v = bytes;
  while (std::fabs(v) >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  return strprintf("%.1f %s", v, units[u]);
}

std::string human_seconds(double seconds) {
  const double abs = std::fabs(seconds);
  if (abs >= 1.0) return strprintf("%.3f s", seconds);
  if (abs >= 1e-3) return strprintf("%.3f ms", seconds * 1e3);
  if (abs >= 1e-6) return strprintf("%.3f us", seconds * 1e6);
  return strprintf("%.1f ns", seconds * 1e9);
}

std::string join(const std::vector<std::string>& items,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += sep;
    out += items[i];
  }
  return out;
}

template <typename T>
std::optional<T> parse_number(std::string_view token) {
  T value{};
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc() || end != last) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

template <typename T>
bool parse_flag(std::string_view flag, std::string_view token, T& out,
                std::ostream& err, std::type_identity_t<T> min,
                std::type_identity_t<T> max) {
  const std::optional<T> value = parse_number<T>(token);
  if (!value || *value < min || *value > max) {
    err << "bad value for " << flag << ": '" << token << "'\n";
    return false;
  }
  out = *value;
  return true;
}

template std::optional<int> parse_number(std::string_view);
template std::optional<long long> parse_number(std::string_view);
template std::optional<std::uint64_t> parse_number(std::string_view);
template std::optional<double> parse_number(std::string_view);
template bool parse_flag(std::string_view, std::string_view, int&,
                         std::ostream&, int, int);
template bool parse_flag(std::string_view, std::string_view, long long&,
                         std::ostream&, long long, long long);
template bool parse_flag(std::string_view, std::string_view, std::uint64_t&,
                         std::ostream&, std::uint64_t, std::uint64_t);
template bool parse_flag(std::string_view, std::string_view, double&,
                         std::ostream&, double, double);

}  // namespace wfe
