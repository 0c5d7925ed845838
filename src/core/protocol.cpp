#include "waldo/core/protocol.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "waldo/core/wire_text.hpp"

namespace waldo::core {

namespace {

constexpr std::string_view kMagic = "WSNP/1";
constexpr std::string_view kFraming = "WSNP";  // error-message prefix

using wire_text::append_line;

// Throws unless nothing but whitespace remains — numeric fields followed
// by trailing garbage ("46 1 2 junk") must not decode successfully.
void require_drained(wire_text::Tokens& in, const char* what) {
  if (!in.done()) {
    throw std::runtime_error(std::string("WSNP: trailing garbage after ") +
                             what);
  }
}

[[nodiscard]] const char* type_name(const Message& m) {
  struct Visitor {
    const char* operator()(const ModelRequest&) { return "model_request"; }
    const char* operator()(const ModelResponse&) { return "model_response"; }
    const char* operator()(const UploadRequest&) { return "upload_request"; }
    const char* operator()(const UploadResponse&) {
      return "upload_response";
    }
    const char* operator()(const ErrorResponse&) { return "error"; }
  };
  return std::visit(Visitor{}, m);
}

/// Appends a message's body to `out`, one line per record. A model
/// response's body is "<channel> <descriptor-bytes>\n" and then the raw
/// descriptor (binary, any byte value), which is left in `raw_tail` for
/// the frame to append.
struct BodyWriter {
  std::string& out;
  std::string_view raw_tail;

  void operator()(const ModelRequest& r) {
    append_line(out, r.channel, r.location.east_m, r.location.north_m);
  }
  void operator()(const ModelResponse& r) {
    append_line(out, r.channel, r.descriptor.size());
    raw_tail = r.descriptor;
  }
  void operator()(const UploadRequest& r) {
    if (r.contributor.empty() ||
        r.contributor.find_first_of(" \t\n") != std::string::npos) {
      throw std::invalid_argument(
          "contributor must be a single non-empty token");
    }
    append_line(out, r.channel, r.contributor, r.readings.size(),
                r.request_id, r.location.east_m, r.location.north_m);
    for (const campaign::Measurement& m : r.readings) {
      append_line(out, m.position.east_m, m.position.north_m, m.raw,
                  m.rss_dbm, m.cft_db, m.aft_db);
    }
  }
  void operator()(const UploadResponse& r) {
    append_line(out, r.accepted, r.rejected, r.pending, r.ticket);
  }
  void operator()(const ErrorResponse& r) {
    // The reason is one line: each line break in it becomes a space.
    std::string reason = r.reason;
    std::replace_if(
        reason.begin(), reason.end(),
        [](char c) { return c == '\n' || c == '\r'; }, ' ');
    append_line(out, static_cast<int>(r.code), r.channel, reason);
  }
};

/// "WSNP/1 <type> <body-bytes>\n" followed by the body, `head` then
/// `tail`, in one allocation.
[[nodiscard]] std::string frame(std::string_view type, std::string_view head,
                                std::string_view tail) {
  std::string out;
  out.reserve(kMagic.size() + type.size() + 24 + head.size() + tail.size());
  append_line(out, kMagic, type, head.size() + tail.size());
  out += head;
  out += tail;
  return out;
}

[[nodiscard]] Message decode_body(std::string_view type,
                                  std::string_view body) {
  wire_text::Tokens in(body);
  if (type == "model_request") {
    ModelRequest r;
    if (!in.read(r.channel, r.location.east_m, r.location.north_m)) {
      throw std::runtime_error("malformed model_request body");
    }
    require_drained(in, "model_request fields");
    return r;
  }
  if (type == "model_response") {
    // First line is "<channel> <descriptor-bytes>"; the descriptor
    // follows raw (it is binary, so it is never parsed as text here).
    ModelResponse r;
    const auto nl = body.find('\n');
    if (nl == std::string_view::npos) {
      throw std::runtime_error("malformed model_response body");
    }
    const std::string_view line = body.substr(0, nl);
    const auto space = line.find(' ');
    if (space == std::string_view::npos) {
      throw std::runtime_error("malformed model_response body");
    }
    r.channel = wire_text::parse_int<int>(line.substr(0, space), kFraming,
                                          "model_response channel");
    const auto declared = wire_text::parse_int<std::size_t>(
        line.substr(space + 1), kFraming, "model_response descriptor length");
    const std::string_view descriptor = body.substr(nl + 1);
    if (descriptor.size() != declared) {
      throw std::runtime_error("WSNP: descriptor length mismatch");
    }
    r.descriptor = descriptor;
    return r;
  }
  if (type == "upload_request") {
    UploadRequest r;
    std::size_t count = 0;
    if (!in.read(r.channel, r.contributor, count, r.request_id,
                 r.location.east_m, r.location.north_m)) {
      throw std::runtime_error("malformed upload_request body");
    }
    // Each reading occupies at least a dozen body bytes; a count the body
    // cannot possibly hold is a malformed (or hostile) frame, not a reason
    // to attempt a giant allocation.
    if (count > body.size()) {
      throw std::runtime_error("WSNP: malformed upload_request count");
    }
    r.readings.resize(count);
    for (campaign::Measurement& m : r.readings) {
      if (!in.read(m.position.east_m, m.position.north_m, m.raw, m.rss_dbm,
                   m.cft_db, m.aft_db)) {
        throw std::runtime_error("truncated upload_request body");
      }
    }
    require_drained(in, "upload_request readings");
    return r;
  }
  if (type == "upload_response") {
    UploadResponse r;
    if (!in.read(r.accepted, r.rejected, r.pending, r.ticket)) {
      throw std::runtime_error("malformed upload_response body");
    }
    require_drained(in, "upload_response fields");
    return r;
  }
  if (type == "error") {
    // "<code> <channel> <reason...>\n"; a body without both numbers is
    // malformed. The reason is the rest of that one line: no byte may
    // follow it, and it holds no '\r', which the encoder never writes.
    ErrorResponse r;
    int code = 0;
    if (!in.read(code, r.channel)) {
      throw std::runtime_error("malformed error body");
    }
    r.code = static_cast<ErrorCode>(code);
    r.reason = in.rest_of_line();
    if (!in.at_end() || r.reason.find('\r') != std::string::npos) {
      throw std::runtime_error("WSNP: error reason is not one line");
    }
    return r;
  }
  throw std::runtime_error("unknown WSNP message type: " + std::string(type));
}

}  // namespace

std::string encode(const Message& message) {
  std::string head;
  BodyWriter writer{head, {}};
  std::visit(writer, message);
  return frame(type_name(message), head, writer.raw_tail);
}

std::string encode_model_response(int channel, std::string_view descriptor) {
  std::string head;
  append_line(head, channel, descriptor.size());
  return frame("model_response", head, descriptor);
}

Message decode(const std::string& wire) {
  const std::string_view text(wire);
  const auto header_end = text.find('\n');
  if (header_end == std::string_view::npos) {
    throw std::runtime_error("WSNP: missing header line");
  }
  wire_text::Tokens header(text.substr(0, header_end));
  const std::string_view magic = header.next();
  const std::string_view type = header.next();
  const std::string_view length_token = header.next();
  if (length_token.empty() || magic != kMagic) {
    throw std::runtime_error("WSNP: bad header");
  }
  require_drained(header, "WSNP header");
  const auto length =
      wire_text::parse_int<std::size_t>(length_token, kFraming, "body length");
  const std::string_view body = text.substr(header_end + 1);
  if (body.size() != length) {
    throw std::runtime_error("WSNP: body length mismatch");
  }
  return decode_body(type, body);
}

}  // namespace waldo::core
