// Strict numeric parsing for command-line flag values.
//
// The whole value must parse as a number of the requested type: no
// leading whitespace, no trailing characters, no sign on unsigned types,
// no out-of-range values, and only finite floating-point numbers.
// Anything else exits 2 with a message naming the flag, so
// `--threads abc` or `--threads 2x` fails loudly instead of running with
// a silently reinterpreted value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <system_error>
#include <type_traits>

namespace graphbig::tools {

template <typename T>
T parse_flag_number(const std::string& flag, const std::string& text) {
  static_assert(std::is_arithmetic_v<T>);
  T value{};
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [end, ec] = std::from_chars(first, last, value);
  bool ok = ec == std::errc() && end == last;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::cerr << "invalid value for " << flag << ": '" << text
              << "' (expected "
              << (std::is_integral_v<T> ? "an integer" : "a number")
              << ")\n";
    std::exit(2);
  }
  return value;
}

}  // namespace graphbig::tools
