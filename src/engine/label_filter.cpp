// engine::label_filter (sweep.hpp), alone in its translation unit:
// GCC 12's <regex> draws a false -Wmaybe-uninitialized from inside
// std::function at -O1 with -fsanitize=address,undefined (the asan
// preset), which src/'s -Werror turns into a build failure. The pragma
// silences that one warning for this file only.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#include <regex>

#include "common/check.hpp"
#include "engine/sweep.hpp"

namespace ambb::engine {

std::function<bool(const std::string&)> label_filter(
    const std::string& pattern) {
  try {
    return [re = std::regex(pattern, std::regex::ECMAScript)](
               const std::string& label) {
      return std::regex_search(label, re);
    };
  } catch (const std::regex_error& e) {
    throw CheckError("--filter '" + pattern +
                     "' is not a valid regex: " + e.what());
  }
}

}  // namespace ambb::engine
