#include "common/parse.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <type_traits>
#include <utility>

namespace wadc {

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  // std::from_chars takes no whitespace, '+' or "0x" prefix and ignores the
  // locale; requiring it to consume every character makes the token whole.
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

template std::optional<int> parse_number<int>(std::string_view);
template std::optional<std::uint64_t> parse_number<std::uint64_t>(
    std::string_view);
template std::optional<double> parse_number<double>(std::string_view);

template <typename T>
std::optional<T> env_number(const char* name, T min) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const std::optional<T> value = parse_number<T>(text);
  if (!value || *value < min) {
    std::fprintf(stderr, "invalid %s: '%s' (want an integer >= %s)\n", name,
                 text, std::to_string(min).c_str());
    std::exit(2);
  }
  return value;
}

template std::optional<int> env_number<int>(const char*, int);
template std::optional<std::uint64_t> env_number<std::uint64_t>(
    const char*, std::uint64_t);

void spec_error(const std::string& spec, int line_no, const std::string& why) {
  throw std::runtime_error(spec + " line " + std::to_string(line_no) + ": " +
                           why);
}

SpecLine::SpecLine(std::string spec, int line_no, std::string_view text)
    : spec_(std::move(spec)), line_no_(line_no) {
  std::istringstream in{std::string(text)};
  for (std::string token; in >> token;) tokens_.push_back(std::move(token));
}

std::string SpecLine::word(const char* what) {
  if (at_end()) fail(std::string("expected ") + what);
  return tokens_[next_++];
}

std::optional<SpecLine::KeyValue> SpecLine::read_key_value() {
  if (at_end()) return std::nullopt;
  const std::string& token = tokens_[next_++];
  const std::size_t eq = token.find('=');
  if (eq == std::string::npos) fail("expected key=value, got '" + token + "'");
  return KeyValue{token.substr(0, eq), token.substr(eq + 1)};
}

void SpecLine::expect_end() const {
  if (!at_end()) fail("unexpected trailing token '" + tokens_[next_] + "'");
}

int for_each_spec_line(const std::string& spec, const std::string& text,
                       const std::function<void(SpecLine&)>& fn) {
  std::istringstream lines(text);
  std::string raw;
  int line_no = 0;
  while (std::getline(lines, raw)) {
    ++line_no;
    SpecLine line(spec, line_no,
                  std::string_view(raw).substr(0, raw.find('#')));
    if (line.at_end()) continue;
    fn(line);
    line.expect_end();
  }
  return line_no;
}

std::string read_spec_file(const std::string& spec, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + spec + ": " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

template <typename T>
Flag number_flag(std::string name, T& out,
                 std::type_identity_t<std::optional<T>> min) {
  std::ostringstream want;
  want << (std::is_floating_point_v<T> ? "a number"
           : std::is_signed_v<T>       ? "an integer"
                                       : "a non-negative integer");
  if (min) want << " >= " << *min;
  return parsed_flag(
      std::move(name), out,
      [min](std::string_view text) {
        const std::optional<T> value = parse_number<T>(text);
        return value && min && *value < *min ? std::nullopt : value;
      },
      want.str());
}

template Flag number_flag<int>(std::string, int&, std::optional<int>);
template Flag number_flag<std::uint64_t>(std::string, std::uint64_t&,
                                         std::optional<std::uint64_t>);
template Flag number_flag<double>(std::string, double&,
                                  std::optional<double>);

Flag path_flag(std::string name, std::string& out, std::string want) {
  return parsed_flag(
      std::move(name), out,
      [](std::string_view text) {
        return text.empty() ? std::nullopt
                            : std::optional<std::string>(text);
      },
      std::move(want));
}

Flag switch_flag(std::string name, bool& out, bool value) {
  return {std::move(name), false, {}, [&out, value](std::string_view) {
            out = value;
            return true;
          }};
}

FlagsRead read_flags(const std::vector<std::string_view>& args,
                     const std::vector<Flag>& flags) {
  for (const std::string_view arg : args) {
    if (arg == "--help" || arg == "-h") return {true, {}};
    const std::size_t eq = arg.find('=');
    const bool has_value = eq != std::string_view::npos;
    const std::string_view name = arg.substr(0, eq);
    const auto flag =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
          return f.name == name && f.takes_value == has_value;
        });
    if (flag == flags.end()) {
      return {false, "unknown option '" + std::string(arg) + "'"};
    }
    const std::string_view value = has_value ? arg.substr(eq + 1) : "";
    if (!flag->store(value)) {
      return {false, "invalid value for " + flag->name + ": '" +
                         std::string(value) + "' (want " + flag->want + ")"};
    }
  }
  return {};
}

}  // namespace wadc
