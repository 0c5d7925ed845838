// waldo::codec — the binary wire format for model descriptors.
//
// A descriptor is a self-contained container:
//
//   [4-byte magic "WSDB"] [varint format version] [payload...] [CRC32 LE]
//
// The payload is a flat sequence of primitives:
//   - u64: unsigned LEB128 varint (7 bits per byte, LSB first, max 10 bytes)
//   - i64: zigzag-mapped to u64, then varint
//   - f64: the raw IEEE-754 bit pattern, 8 bytes little-endian (bit-exact
//     round trips — no decimal formatting, no locale sensitivity)
//   - str: varint length followed by the raw bytes
//
// The CRC32 trailer (reflected polynomial 0xEDB88320, the zlib/PNG CRC)
// covers everything before it, magic and version included. `Reader`
// validates magic, version, and CRC up front, and every read is bounds-
// checked against the payload — truncated, bit-flipped, or adversarial
// length-prefixed input throws `codec::Error` instead of over-reading or
// allocating unboundedly. See docs/WIRE_FORMAT.md for the full layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace waldo::codec {

/// Thrown on any malformed descriptor: bad magic, unsupported version,
/// CRC mismatch, truncation, or a length prefix the payload cannot hold.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error("waldo codec: " + what) {}
};

/// First four bytes of every binary descriptor.
inline constexpr std::string_view kMagic{"WSDB"};

/// Current container format version.
inline constexpr std::uint64_t kFormatVersion = 1;

/// CRC32 (reflected 0xEDB88320) of `data`, as used by the trailer.
[[nodiscard]] std::uint32_t crc32(std::string_view data) noexcept;

/// True if `bytes` starts with the binary-descriptor magic.
[[nodiscard]] bool is_binary(std::string_view bytes) noexcept;

/// Serializes primitives into a descriptor. Construction writes the magic
/// and version; `finish()` appends the CRC trailer and yields the bytes.
class Writer {
 public:
  Writer();

  void u8(std::uint8_t value);
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void f64(double value);
  void str(std::string_view value);
  /// Varint count followed by the raw values.
  void f64_array(const std::vector<double>& values);

  /// Bytes written so far (magic + version + payload, no trailer yet).
  [[nodiscard]] std::size_t size_bytes() const noexcept { return buf_.size(); }

  /// Appends the CRC32 trailer and returns the complete descriptor.
  /// The writer is consumed; no further writes are valid.
  [[nodiscard]] std::string finish() &&;

 private:
  std::string buf_;
};

/// Bounds-checked deserializer. The constructor validates the magic, the
/// format version, and the CRC trailer; individual reads then walk the
/// payload and throw `Error` on any truncation or malformed varint.
class Reader {
 public:
  /// `descriptor` must outlive the reader (views, does not copy).
  explicit Reader(std::string_view descriptor);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<double> f64_array();

  /// Reads a varint element count whose elements each occupy at least
  /// `min_bytes_per_item` payload bytes, and rejects counts the remaining
  /// payload cannot possibly hold — the guard that keeps adversarial
  /// length prefixes from driving unbounded allocation.
  [[nodiscard]] std::size_t count(std::size_t min_bytes_per_item);

  /// Payload bytes not yet consumed.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - pos_);
  }

  /// Throws unless the payload has been consumed exactly.
  void expect_done() const;

 private:
  const char* pos_ = nullptr;
  const char* end_ = nullptr;

  void need(std::size_t bytes, const char* what) const;
};

}  // namespace waldo::codec
