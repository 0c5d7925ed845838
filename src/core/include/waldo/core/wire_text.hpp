// Number text of the WSNP/1 and CLSTR/1 framings (docs/WIRE_FORMAT.md):
// base-10 integers with no '+', and doubles as printf's "%.17g" in the C
// locale. Numbers are written with std::to_chars and read back with
// std::from_chars, so neither framing touches an iostream or a locale.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace waldo::core::wire_text {

/// Appends `value` in base 10.
template <std::integral Int>
void append(std::string& out, Int value) {
  char buf[24];  // an int64 needs 20 bytes with its sign
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end);
}

/// Appends `value` as "%.17g" writes it: 17 significant digits, enough to
/// read every double back exactly. Non-finite values come out as printf
/// writes them ("inf", "-nan"), and no decoder accepts those.
inline void append(std::string& out, double value) {
  char buf[32];  // "-2.2250738585072014e-308" is 24 bytes
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value,
                                       std::chars_format::general, 17);
  out.append(buf, end);
}

inline void append(std::string& out, std::string_view text) { out += text; }

/// Appends one line: the fields separated by single spaces, then '\n'.
template <typename First, typename... Rest>
void append_line(std::string& out, const First& first, const Rest&... rest) {
  append(out, first);
  ((out += ' ', append(out, rest)), ...);
  out += '\n';
}

/// True iff all of `text` is one base-10 integer that fits `Int`: no sign
/// on an unsigned type, no '+', no whitespace.
template <typename Int>
[[nodiscard]] bool parse_int(std::string_view text, Int& value) noexcept {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  return ec == std::errc{} && ptr == end;
}

/// parse_int that throws std::runtime_error naming the framing and field.
template <typename Int>
[[nodiscard]] Int parse_int(std::string_view text, std::string_view framing,
                            const char* field) {
  Int value{};
  if (!parse_int(text, value)) {
    throw std::runtime_error(std::string(framing) + ": malformed " + field +
                             ": '" + std::string(text) + "'");
  }
  return value;
}

/// True iff all of `text` is one decimal number whose double is finite:
/// "inf", "nan" and out-of-range exponents are rejected.
[[nodiscard]] inline bool parse_double(std::string_view text,
                                       double& value) noexcept {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value,
                                         std::chars_format::general);
  return ec == std::errc{} && ptr == end && std::isfinite(value);
}

/// The whitespace of isspace in the C locale.
[[nodiscard]] constexpr bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Reads whitespace-separated tokens of a text in order, without copying.
class Tokens {
 public:
  explicit Tokens(std::string_view text) noexcept : text_(text) {}

  /// The next token; empty once nothing but whitespace remains.
  [[nodiscard]] std::string_view next() noexcept {
    skip_space();
    std::size_t end = pos_;
    while (end < text_.size() && !is_space(text_[end])) ++end;
    const std::string_view token = text_.substr(pos_, end - pos_);
    pos_ = end;
    return token;
  }

  /// Reads the next tokens into `fields` in order. False at the first
  /// token that is missing or does not parse whole.
  template <typename... Fields>
  [[nodiscard]] bool read(Fields&... fields) {
    return (read_one(fields) && ...);
  }

  /// True iff nothing but whitespace remains.
  [[nodiscard]] bool done() noexcept {
    skip_space();
    return pos_ == text_.size();
  }

  /// Skips whitespace other than '\n', then returns the rest of the line
  /// without its '\n' and moves past that '\n'.
  [[nodiscard]] std::string_view rest_of_line() noexcept {
    while (pos_ < text_.size() && text_[pos_] != '\n' &&
           is_space(text_[pos_])) {
      ++pos_;
    }
    const std::size_t nl = text_.find('\n', pos_);
    const std::size_t end = nl == std::string_view::npos ? text_.size() : nl;
    const std::string_view line = text_.substr(pos_, end - pos_);
    pos_ = nl == std::string_view::npos ? end : end + 1;
    return line;
  }

  /// True iff every byte has been read, whitespace included.
  [[nodiscard]] bool at_end() const noexcept { return pos_ == text_.size(); }

 private:
  template <std::integral Int>
  bool read_one(Int& value) noexcept {
    return parse_int(next(), value);
  }
  bool read_one(double& value) noexcept { return parse_double(next(), value); }
  bool read_one(std::string& value) {
    value = next();
    return !value.empty();
  }

  void skip_space() noexcept {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace waldo::core::wire_text
