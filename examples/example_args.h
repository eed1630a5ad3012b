// Positional arguments of the example programs, read strictly: the same
// number grammar as every other outside input (common/parse.h) and the
// same exit code 2 as wadc_run's flags.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>

#include "common/parse.h"

namespace wadc::examples {

// argv[index] as a T, or `fallback` when the argument is absent. A value
// that is not one whole number in T's range prints a message naming it and
// exits 2.
template <typename T>
T positional_arg(int argc, char** argv, int index, const char* name,
                 T fallback) {
  if (argc <= index) return fallback;
  const std::optional<T> v = parse_number<T>(argv[index]);
  if (!v) {
    std::fprintf(stderr, "%s: invalid number for %s: '%s'\n", argv[0], name,
                 argv[index]);
    std::exit(2);
  }
  return *v;
}

}  // namespace wadc::examples
