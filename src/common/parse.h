// Strict reading of input from outside the program: command-line flags,
// environment variables, and the line-oriented spec files (fault, session
// and trace-set files). The grammar is described once in
// docs/ARCHITECTURE.md, "Input grammar".
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wadc {

// The whole of `text` as a T: int, std::uint64_t, or a finite double.
// nullopt unless every character belongs to one decimal number in T's
// range: trailing junk, a fraction or exponent where an integer is
// expected, hex, nan, inf and the empty string are all rejected.
template <typename T>
std::optional<T> parse_number(std::string_view text);

// Environment variable `name` as an integer T (int or std::uint64_t) no
// smaller than `min`, or nullopt when it is unset. A set value that does
// not parse, or is below `min`, prints a message naming the variable and
// exits 2.
template <typename T>
std::optional<T> env_number(const char* name, T min);

// The value of command-line argument `arg` when it is `name=value`.
std::optional<std::string> flag_value(const char* arg, const char* name);

// Throws std::runtime_error("<spec> line <line_no>: <why>").
[[noreturn]] void spec_error(const std::string& spec, int line_no,
                             const std::string& why);

// One line of a spec file as whitespace-separated tokens, read left to
// right. Every failure goes through spec_error, naming spec and line.
class SpecLine {
 public:
  struct KeyValue {
    std::string key;
    std::string value;
  };

  SpecLine(std::string spec, int line_no, std::string_view text);

  bool at_end() const { return next_ == tokens_.size(); }
  [[noreturn]] void fail(const std::string& why) const {
    spec_error(spec_, line_no_, why);
  }

  // The next token; fails with "expected <what>" at the end of the line.
  std::string word(const char* what);

  // The next token as a number; fails when it is missing or malformed.
  template <typename T>
  T read(const char* what) {
    if (at_end()) fail(std::string("expected ") + what);
    return number<T>(tokens_[next_++], what);
  }

  // read(), for a number that must be the last token on the line.
  template <typename T>
  T read_last(const char* what) {
    const T v = read<T>(what);
    expect_end();
    return v;
  }

  // An optional trailing field: nullopt at the end of the line. A field
  // that is present but malformed fails; it never falls back to a default.
  template <typename T>
  std::optional<T> read_optional(const char* what) {
    if (at_end()) return std::nullopt;
    return number<T>(tokens_[next_++], what);
  }

  // The next token split at its first '='; nullopt at the end of the line.
  // A token without '=' fails.
  std::optional<KeyValue> read_key_value();

  // The value of a key=value token as a number; fails when malformed.
  template <typename T>
  T value(const KeyValue& kv) const {
    const std::optional<T> v = parse_number<T>(kv.value);
    if (!v) fail("malformed value in '" + kv.key + "=" + kv.value + "'");
    return *v;
  }

  // Fails on any token left on the line.
  void expect_end() const;

 private:
  template <typename T>
  T number(const std::string& token, const char* what) const {
    const std::optional<T> v = parse_number<T>(token);
    if (!v) fail(std::string("expected ") + what + ", got '" + token + "'");
    return *v;
  }

  std::string spec_;
  int line_no_;
  std::vector<std::string> tokens_;
  std::size_t next_ = 0;
};

// Calls `fn` for every line of `text` that holds a token once its '#'
// comment is stripped, then fails the line if `fn` left a token unread.
// Returns the number of lines in `text`.
int for_each_spec_line(const std::string& spec, const std::string& text,
                       const std::function<void(SpecLine&)>& fn);

// The contents of the spec file at `path`; throws std::runtime_error
// ("cannot open <spec>: <path>") when it cannot be opened.
std::string read_spec_file(const std::string& spec, const std::string& path);

}  // namespace wadc
