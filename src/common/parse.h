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
#include <type_traits>
#include <utility>
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

// ---- command-line flags ----------------------------------------------------

// One entry of a binary's flag table: `--name=VALUE` stored into a
// destination, or a bare `--name` switch. Built by the *_flag functions
// below and applied to the command line by read_flags.
struct Flag {
  std::string name;  // with its leading "--"
  bool takes_value = true;
  std::string want;  // what a valid value looks like, for the error line
  // Stores VALUE (empty for a switch); false when VALUE is malformed.
  std::function<bool(std::string_view)> store;
};

// --name=VALUE read by `parse`, the function that owns the value's grammar:
// it returns a std::optional, nullopt when VALUE is malformed. `want`
// describes a valid value.
template <typename Out, typename Parse>
Flag parsed_flag(std::string name, Out& out, Parse parse, std::string want) {
  return {std::move(name), true, std::move(want),
          [&out, parse](std::string_view text) {
            auto value = parse(text);
            if (!value) return false;
            out = std::move(*value);
            return true;
          }};
}

// --name=N: a parse_number<T> (int, std::uint64_t or double), no smaller
// than `min` when one is given.
template <typename T>
Flag number_flag(std::string name, T& out,
                 std::type_identity_t<std::optional<T>> min = std::nullopt);

// --name=TEXT: any non-empty string, such as a file path.
Flag path_flag(std::string name, std::string& out,
               std::string want = "a file path");

// --name=WORD: one of `choices`, each a spelling and the value it stands
// for.
template <typename T>
Flag choice_flag(std::string name, T& out,
                 std::vector<std::pair<std::string_view, T>> choices) {
  std::string want;
  for (std::size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) want += i + 1 == choices.size() ? " or " : ", ";
    want += choices[i].first;
  }
  return parsed_flag(
      std::move(name), out,
      [choices = std::move(choices)](std::string_view text) {
        for (const auto& [spelling, value] : choices) {
          if (text == spelling) return std::optional<T>(value);
        }
        return std::optional<T>();
      },
      std::move(want));
}

// Bare --name: sets `out` to `value`.
Flag switch_flag(std::string name, bool& out, bool value = true);

// What read_flags found on the command line.
struct FlagsRead {
  bool help = false;  // --help or -h came before any error
  // One line naming the offending argument and quoting its value; empty
  // when every argument was read.
  std::string error;
};

// Applies `flags` to `args`, left to right, so the last occurrence of a
// flag wins. Only `--name=VALUE` and bare switches are read: an argument
// no flag matches, a switch given a value and a value flag given none are
// unknown options. Stops at --help or -h, or at the first error.
FlagsRead read_flags(const std::vector<std::string_view>& args,
                     const std::vector<Flag>& flags);

}  // namespace wadc
