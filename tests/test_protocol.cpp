#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <locale>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "decode_sweep.hpp"
#include "waldo/cluster/wire.hpp"
#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/core/protocol.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/service/frontend.hpp"
#include "waldo/service/service.hpp"

namespace waldo::core {
namespace {

// ------------------------------------------------------------ oracles
//
// The iostream codecs that WSNP/1 and the CLSTR/1 envelope used before
// they moved to std::to_chars/std::from_chars, kept verbatim. The
// differential tests below hold the library to their bytes, and to
// accepting no frame that they reject.
namespace oracle_wsnp {

constexpr const char* kMagic = "WSNP/1";

// Parses a base-10 integer occupying the whole of `text`: empty input,
// non-digit bytes, and trailing junk are all rejected, naming the field.
template <typename Int>
[[nodiscard]] Int parse_int_field(std::string_view text, const char* field) {
  Int value{};
  const char* const begin = text.data();
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error(std::string("WSNP: malformed ") + field +
                             ": '" + std::string(text) + "'");
  }
  return value;
}

// Throws unless nothing but whitespace remains — numeric fields followed
// by trailing garbage ("46 1 2 junk") must not decode successfully.
void require_drained(std::istream& is, const char* what) {
  char stray = '\0';
  if (is >> stray) {
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

[[nodiscard]] std::string encode_body(const Message& m) {
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << std::setprecision(17);
  struct Visitor {
    std::ostringstream& os;
    void operator()(const ModelRequest& r) {
      os << r.channel << " " << r.location.east_m << " "
         << r.location.north_m << "\n";
    }
    void operator()(const ModelResponse& r) {
      // Length-prefixed: binary descriptors may contain any byte value,
      // so the old "rest of the body" framing is replaced by an explicit
      // byte count on the first line.
      os << r.channel << " " << r.descriptor.size() << "\n" << r.descriptor;
    }
    void operator()(const UploadRequest& r) {
      if (r.contributor.empty() ||
          r.contributor.find_first_of(" \t\n") != std::string::npos) {
        throw std::invalid_argument(
            "contributor must be a single non-empty token");
      }
      os << r.channel << " " << r.contributor << " " << r.readings.size()
         << " " << r.request_id << " " << r.location.east_m << " "
         << r.location.north_m << "\n";
      for (const campaign::Measurement& m : r.readings) {
        os << m.position.east_m << " " << m.position.north_m << " " << m.raw
           << " " << m.rss_dbm << " " << m.cft_db << " " << m.aft_db << "\n";
      }
    }
    void operator()(const UploadResponse& r) {
      os << r.accepted << " " << r.rejected << " " << r.pending << " "
         << r.ticket << "\n";
    }
    void operator()(const ErrorResponse& r) {
      os << static_cast<int>(r.code) << " " << r.channel << " " << r.reason
         << "\n";
    }
  };
  std::visit(Visitor{os}, m);
  return os.str();
}

[[nodiscard]] Message decode_body(const std::string& type,
                                  const std::string& body) {
  std::istringstream is(body);
  is.imbue(std::locale::classic());
  if (type == "model_request") {
    ModelRequest r;
    if (!(is >> r.channel >> r.location.east_m >> r.location.north_m)) {
      throw std::runtime_error("malformed model_request body");
    }
    require_drained(is, "model_request fields");
    return r;
  }
  if (type == "model_response") {
    // First line is "<channel> <descriptor-bytes>"; the descriptor
    // follows raw (it is binary, so it is never parsed as text here).
    ModelResponse r;
    const auto nl = body.find('\n');
    if (nl == std::string::npos) {
      throw std::runtime_error("malformed model_response body");
    }
    const std::string_view line(body.data(), nl);
    const auto space = line.find(' ');
    if (space == std::string_view::npos) {
      throw std::runtime_error("malformed model_response body");
    }
    r.channel =
        parse_int_field<int>(line.substr(0, space), "model_response channel");
    const auto declared = parse_int_field<std::size_t>(
        line.substr(space + 1), "model_response descriptor length");
    r.descriptor = body.substr(nl + 1);
    if (r.descriptor.size() != declared) {
      throw std::runtime_error("WSNP: descriptor length mismatch");
    }
    return r;
  }
  if (type == "upload_request") {
    UploadRequest r;
    std::size_t count = 0;
    if (!(is >> r.channel >> r.contributor >> count >> r.request_id >>
          r.location.east_m >> r.location.north_m)) {
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
      if (!(is >> m.position.east_m >> m.position.north_m >> m.raw >>
            m.rss_dbm >> m.cft_db >> m.aft_db)) {
        throw std::runtime_error("truncated upload_request body");
      }
    }
    require_drained(is, "upload_request readings");
    return r;
  }
  if (type == "upload_response") {
    UploadResponse r;
    if (!(is >> r.accepted >> r.rejected >> r.pending >> r.ticket)) {
      throw std::runtime_error("malformed upload_response body");
    }
    require_drained(is, "upload_response fields");
    return r;
  }
  if (type == "error") {
    // "<code> <channel> <reason...>"; a body without both numbers is
    // malformed.
    ErrorResponse r;
    int code = 0;
    if (!(is >> code >> r.channel)) {
      throw std::runtime_error("malformed error body");
    }
    r.code = static_cast<ErrorCode>(code);
    std::getline(is >> std::ws, r.reason);
    return r;
  }
  throw std::runtime_error("unknown WSNP message type: " + type);
}

std::string encode(const Message& message) {
  const std::string body = encode_body(message);
  std::ostringstream os;
  os.imbue(std::locale::classic());
  os << kMagic << " " << type_name(message) << " " << body.size() << "\n"
     << body;
  return os.str();
}

Message decode(const std::string& wire) {
  const auto header_end = wire.find('\n');
  if (header_end == std::string::npos) {
    throw std::runtime_error("WSNP: missing header line");
  }
  std::istringstream header(wire.substr(0, header_end));
  header.imbue(std::locale::classic());
  std::string magic, type;
  std::string length_token;
  if (!(header >> magic >> type >> length_token) || magic != kMagic) {
    throw std::runtime_error("WSNP: bad header");
  }
  require_drained(header, "WSNP header");
  const std::size_t length =
      parse_int_field<std::size_t>(length_token, "body length");
  const std::string body = wire.substr(header_end + 1);
  if (body.size() != length) {
    throw std::runtime_error("WSNP: body length mismatch");
  }
  return decode_body(type, body);
}

}  // namespace oracle_wsnp

namespace oracle_clstr {

using namespace waldo::cluster;

constexpr std::string_view kMagic = "CLSTR/1";

// Same checked-parsing discipline as core/protocol.cpp: a field must be a
// base-10 integer occupying its whole token.
template <typename Int>
[[nodiscard]] Int parse_int(std::string_view text, const char* field) {
  Int value{};
  const char* const begin = text.data();
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error(std::string("CLSTR: malformed ") + field +
                             ": '" + std::string(text) + "'");
  }
  return value;
}

/// Splits `line` into exactly `n` space-separated tokens.
[[nodiscard]] std::vector<std::string_view> split_tokens(std::string_view line,
                                                         std::size_t n,
                                                         const char* what) {
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos <= line.size() && tokens.size() < n) {
    const std::size_t space = line.find(' ', pos);
    if (space == std::string_view::npos) {
      tokens.push_back(line.substr(pos));
      pos = line.size() + 1;
    } else {
      tokens.push_back(line.substr(pos, space - pos));
      pos = space + 1;
    }
  }
  if (tokens.size() != n || pos <= line.size()) {
    throw std::runtime_error(std::string("CLSTR: malformed ") + what);
  }
  return tokens;
}

std::string encode_envelope(const Envelope& envelope) {
  if (envelope.verb.empty() ||
      envelope.verb.find_first_of(" \t\n") != std::string::npos) {
    throw std::invalid_argument("CLSTR verb must be a single token");
  }
  std::ostringstream os;
  os << kMagic << " " << envelope.verb << " " << envelope.from << " "
     << envelope.tile.tx << " " << envelope.tile.ty << " "
     << envelope.body.size() << "\n"
     << envelope.body;
  return os.str();
}

Envelope decode_envelope(const std::string& wire) {
  const std::size_t nl = wire.find('\n');
  if (nl == std::string::npos) {
    throw std::runtime_error("CLSTR: missing header line");
  }
  const auto tokens = split_tokens(std::string_view(wire.data(), nl), 6,
                                   "envelope header");
  if (tokens[0] != kMagic) throw std::runtime_error("CLSTR: bad magic");
  Envelope env;
  env.verb = std::string(tokens[1]);
  if (env.verb.empty()) throw std::runtime_error("CLSTR: empty verb");
  env.from = parse_int<NodeId>(tokens[2], "sender id");
  env.tile.tx = parse_int<std::int32_t>(tokens[3], "tile x");
  env.tile.ty = parse_int<std::int32_t>(tokens[4], "tile y");
  const auto length = parse_int<std::size_t>(tokens[5], "body length");
  env.body = wire.substr(nl + 1);
  if (env.body.size() != length) {
    throw std::runtime_error("CLSTR: body length mismatch");
  }
  return env;
}

}  // namespace oracle_clstr

TEST(ProtocolWire, ModelRequestRoundTrip) {
  const ModelRequest request{.channel = 46,
                             .location = geo::EnuPoint{1234.5, -678.9}};
  const Message decoded = decode(encode(request));
  const auto* r = std::get_if<ModelRequest>(&decoded);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->channel, 46);
  EXPECT_DOUBLE_EQ(r->location.east_m, 1234.5);
  EXPECT_DOUBLE_EQ(r->location.north_m, -678.9);
}

TEST(ProtocolWire, UploadRequestRoundTrip) {
  UploadRequest request;
  request.channel = 30;
  request.contributor = "alice";
  for (int i = 0; i < 3; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{100.0 * i, 200.0 * i};
    m.rss_dbm = -90.0 - i;
    m.cft_db = -100.0 - i;
    m.aft_db = -105.0 - i;
    request.readings.push_back(m);
  }
  const Message decoded = decode(encode(request));
  const auto* r = std::get_if<UploadRequest>(&decoded);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->contributor, "alice");
  ASSERT_EQ(r->readings.size(), 3u);
  EXPECT_DOUBLE_EQ(r->readings[2].rss_dbm, -92.0);
  EXPECT_DOUBLE_EQ(r->readings[1].position.north_m, 200.0);
}

TEST(ProtocolWire, ResponsesRoundTrip) {
  const UploadResponse up{.accepted = 5, .rejected = 2, .pending = 1};
  const Message up_decoded = decode(encode(up));
  const auto* u = std::get_if<UploadResponse>(&up_decoded);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->accepted, 5u);
  EXPECT_EQ(u->pending, 1u);

  const ErrorResponse err{.reason = "channel unavailable"};
  const Message decoded = decode(encode(err));
  const auto* e = std::get_if<ErrorResponse>(&decoded);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->reason, "channel unavailable");
}

TEST(ProtocolWire, RejectsMalformedInput) {
  EXPECT_THROW((void)decode("no header"), std::runtime_error);
  EXPECT_THROW((void)decode("HTTP/1.1 model_request 4\nabcd"),
               std::runtime_error);
  EXPECT_THROW((void)decode("WSNP/1 model_request 99\nshort"),
               std::runtime_error);
  EXPECT_THROW((void)decode("WSNP/1 bogus_type 0\n"), std::runtime_error);
  UploadRequest spaced;
  spaced.channel = 30;
  spaced.contributor = "two words";
  EXPECT_THROW((void)encode(spaced), std::invalid_argument);
}

// Regression: numeric header/body fields were parsed with std::stoi and
// unchecked stream extraction, so "46abc" decoded as 46, trailing bytes
// after a complete body were silently ignored, and a hostile upload count
// could drive a huge reserve. Every field is now parsed checked, with
// trailing garbage rejected.
TEST(ProtocolWire, RejectsNonNumericAndTrailingFields) {
  // Non-numeric channel in a model_response ("46abc" used to pass stoi).
  EXPECT_THROW((void)decode("WSNP/1 model_response 9\n46abc\nmdl"),
               std::runtime_error);
  // Non-numeric body length in the header.
  EXPECT_THROW((void)decode("WSNP/1 model_request 4x\n15 0 0\n"),
               std::runtime_error);
  // Trailing garbage after complete model_request fields.
  EXPECT_THROW((void)decode("WSNP/1 model_request 12\n15 0 0 junk\n"),
               std::runtime_error);
  // Trailing garbage after a complete upload_response.
  EXPECT_THROW((void)decode("WSNP/1 upload_response 12\n5 2 1 0 bad\n"),
               std::runtime_error);
  // Extra bytes between body and declared length are not ignored either.
  const std::string valid = encode(ModelRequest{.channel = 15});
  EXPECT_THROW((void)decode(valid + "extra"), std::runtime_error);
}

TEST(ProtocolWire, RejectsImplausibleUploadCount) {
  // Claims 999999 readings in a 3-byte body: must be rejected up front
  // (before any allocation), not trusted as a reserve size.
  EXPECT_THROW((void)decode("WSNP/1 upload_request 18\n15 eve 999999\n0 0\n"),
               std::runtime_error);
  // Count larger than the readings actually present.
  EXPECT_THROW(
      (void)decode("WSNP/1 upload_request 21\n15 eve 2\n1 2 3 4 5 6\n"),
      std::runtime_error);
}

// Upload requests carry a dedup identity and the client's location so a
// routing tier can address the right shard and recognise retries.
TEST(ProtocolWire, UploadRequestIdAndLocationRoundTrip) {
  UploadRequest request;
  request.channel = 15;
  request.contributor = "carol";
  request.request_id = 0xFEEDFACE12345678ull;
  request.location = geo::EnuPoint{-1250.25, 9876.5};
  const Message decoded = decode(encode(request));
  const auto* r = std::get_if<UploadRequest>(&decoded);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->request_id, 0xFEEDFACE12345678ull);
  EXPECT_DOUBLE_EQ(r->location.east_m, -1250.25);
  EXPECT_DOUBLE_EQ(r->location.north_m, 9876.5);
}

TEST(ProtocolWire, ErrorCodeAndChannelRoundTrip) {
  const ErrorResponse err{.reason = "channel 33 is not provisioned",
                          .code = ErrorCode::kUnknownChannel,
                          .channel = 33};
  const Message decoded = decode(encode(err));
  const auto* e = std::get_if<ErrorResponse>(&decoded);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->code, ErrorCode::kUnknownChannel);
  EXPECT_EQ(e->channel, 33);
  EXPECT_EQ(e->reason, "channel 33 is not provisioned");
}

/// An error frame with `body` as its body.
[[nodiscard]] std::string error_frame(const std::string& body) {
  return "WSNP/1 error " + std::to_string(body.size()) + "\n" + body;
}

// Regression: the decoder took the first line after "<code> <channel>" as
// the reason and ignored whatever followed, while every other type
// rejects trailing bytes.
TEST(ProtocolWire, ErrorFrameRejectsBytesAfterItsReasonLine) {
  const auto reason_of = [](const std::string& body) {
    const Message m = decode(error_frame(body));
    return std::get<ErrorResponse>(m).reason;
  };
  EXPECT_EQ(reason_of("20 1 tile not resident\n"), "tile not resident");
  EXPECT_EQ(reason_of("20 1 tile not resident"), "tile not resident");
  EXPECT_EQ(reason_of("20 1\n"), "");
  EXPECT_EQ(reason_of("20 1 \t  spaced  out \n"), "spaced  out ");
  for (const char* body :
       {"20 1 tile not resident\nsecond line\n", "20 1 tile not resident\n\n",
        "20 1 tile not resident\n ", "20 1\nreason on line two\n",
        "20 1 \n\n", "20 1 carriage\rreturn\n", "20 1 crlf\r\n"}) {
    EXPECT_THROW((void)decode(error_frame(body)), std::runtime_error)
        << ::testing::PrintToString(std::string(body));
  }
}

// The encoder writes the reason on one line, each '\n' and '\r' in it
// replaced by a space, and that one-line form round-trips exactly.
TEST(ProtocolWire, ErrorReasonWithALineBreakRoundTripsToOneLine) {
  const ErrorResponse err{.reason = "two\nlines\r\nand\rmore",
                          .code = ErrorCode::kNotReady,
                          .channel = 46};
  const std::string wire = encode(err);
  EXPECT_EQ(wire, "WSNP/1 error 25\n6 46 two lines  and more\n");
  const Message decoded = decode(wire);
  const auto* e = std::get_if<ErrorResponse>(&decoded);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->reason, "two lines  and more");
  EXPECT_EQ(e->code, ErrorCode::kNotReady);
  EXPECT_EQ(e->channel, 46);
  EXPECT_EQ(encode(decoded), wire);
}

TEST(ProtocolWire, LegacyErrorBodiesDecodeAsUnspecified) {
  // An error body must open with "<code> <channel>". The bare reason line
  // of the pre-code form has no peer left to send it and is malformed.
  EXPECT_THROW((void)decode("WSNP/1 error 20\nchannel unavailable\n"),
               std::runtime_error);
  EXPECT_THROW((void)decode("WSNP/1 error 14\n1 unavailable\n"),
               std::runtime_error);
}

TEST(ProtocolWire, RetryabilityPartitionsTheErrorCodes) {
  // A retry cannot fix a request the server understood and rejected…
  EXPECT_FALSE(is_retryable(ErrorCode::kUnspecified));
  EXPECT_FALSE(is_retryable(ErrorCode::kMalformed));
  EXPECT_FALSE(is_retryable(ErrorCode::kUnknownChannel));
  EXPECT_FALSE(is_retryable(ErrorCode::kBadRequest));
  EXPECT_FALSE(is_retryable(ErrorCode::kInternal));
  // …but placement and availability change under the client's feet.
  EXPECT_TRUE(is_retryable(ErrorCode::kNotOwner));
  EXPECT_TRUE(is_retryable(ErrorCode::kNotReady));
  EXPECT_TRUE(is_retryable(ErrorCode::kUnavailable));
}

TEST(ProtocolWire, UploadResponseTicketRoundTrips) {
  const UploadResponse up{
      .accepted = 3, .rejected = 1, .pending = 2, .ticket = 41};
  const Message decoded = decode(encode(up));
  const auto* u = std::get_if<UploadResponse>(&decoded);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->ticket, 41u);
}

// ------------------------------------------- differential vs the oracles

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_point(const geo::EnuPoint& a, const geo::EnuPoint& b) {
  return same_bits(a.east_m, b.east_m) && same_bits(a.north_m, b.north_m);
}

/// Field-by-field equality of the wire fields of two messages; doubles
/// compare by their bits, so -0.0 and 0.0 differ.
[[nodiscard]] bool same_message(const Message& a, const Message& b) {
  if (a.index() != b.index()) return false;
  if (const auto* x = std::get_if<ModelRequest>(&a)) {
    const auto& y = std::get<ModelRequest>(b);
    return x->channel == y.channel && same_point(x->location, y.location);
  }
  if (const auto* x = std::get_if<ModelResponse>(&a)) {
    const auto& y = std::get<ModelResponse>(b);
    return x->channel == y.channel && x->descriptor == y.descriptor;
  }
  if (const auto* x = std::get_if<UploadRequest>(&a)) {
    const auto& y = std::get<UploadRequest>(b);
    if (x->channel != y.channel || x->contributor != y.contributor ||
        x->request_id != y.request_id ||
        !same_point(x->location, y.location) ||
        x->readings.size() != y.readings.size()) {
      return false;
    }
    for (std::size_t i = 0; i < x->readings.size(); ++i) {
      const campaign::Measurement& p = x->readings[i];
      const campaign::Measurement& q = y.readings[i];
      if (!same_point(p.position, q.position) || !same_bits(p.raw, q.raw) ||
          !same_bits(p.rss_dbm, q.rss_dbm) || !same_bits(p.cft_db, q.cft_db) ||
          !same_bits(p.aft_db, q.aft_db)) {
        return false;
      }
    }
    return true;
  }
  if (const auto* x = std::get_if<UploadResponse>(&a)) {
    const auto& y = std::get<UploadResponse>(b);
    return x->accepted == y.accepted && x->rejected == y.rejected &&
           x->pending == y.pending && x->ticket == y.ticket;
  }
  const auto& x = std::get<ErrorResponse>(a);
  const auto& y = std::get<ErrorResponse>(b);
  return x.reason == y.reason && x.code == y.code && x.channel == y.channel;
}

[[nodiscard]] bool same_envelope(const cluster::Envelope& a,
                                 const cluster::Envelope& b) {
  return a.verb == b.verb && a.from == b.from && a.tile == b.tile &&
         a.body == b.body;
}

/// `bytes` with newlines and non-printing bytes escaped, for messages.
[[nodiscard]] std::string printable(const std::string& bytes) {
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n";
    } else if (u < 0x20 || u >= 0x7f) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Runs `decode` and returns its result, or nothing if it threw
/// std::runtime_error.
template <typename Decode>
[[nodiscard]] auto try_decode(Decode decode, const std::string& wire)
    -> std::optional<decltype(decode(wire))> {
  try {
    return decode(wire);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
}

/// The library must reject every frame the oracle rejects, and where both
/// accept a frame they must decode it to the same message.
void expect_no_more_lenient_than_oracle(const std::string& wire) {
  const auto ours = try_decode(
      [](const std::string& w) { return decode(w); }, wire);
  if (!ours) return;
  const auto theirs = try_decode(
      [](const std::string& w) { return oracle_wsnp::decode(w); }, wire);
  ASSERT_TRUE(theirs.has_value())
      << "accepted a frame the oracle rejects: " << printable(wire);
  EXPECT_TRUE(same_message(*ours, *theirs))
      << "decoded differently from the oracle: " << printable(wire);
}

void expect_envelope_no_more_lenient_than_oracle(const std::string& wire) {
  const auto ours = try_decode(
      [](const std::string& w) { return cluster::decode_envelope(w); }, wire);
  if (!ours) return;
  const auto theirs = try_decode(
      [](const std::string& w) { return oracle_clstr::decode_envelope(w); },
      wire);
  ASSERT_TRUE(theirs.has_value())
      << "accepted an envelope the oracle rejects: " << printable(wire);
  EXPECT_TRUE(same_envelope(*ours, *theirs))
      << "decoded differently from the oracle: " << printable(wire);
}

[[nodiscard]] bool all_finite(const Message& m) {
  const auto finite = [](const geo::EnuPoint& p) {
    return std::isfinite(p.east_m) && std::isfinite(p.north_m);
  };
  if (const auto* r = std::get_if<ModelRequest>(&m)) return finite(r->location);
  if (const auto* r = std::get_if<UploadRequest>(&m)) {
    if (!finite(r->location)) return false;
    for (const campaign::Measurement& x : r->readings) {
      if (!finite(x.position) || !std::isfinite(x.raw) ||
          !std::isfinite(x.rss_dbm) || !std::isfinite(x.cft_db) ||
          !std::isfinite(x.aft_db)) {
        return false;
      }
    }
  }
  return true;
}

/// The encoder writes the oracle's bytes. A frame of finite values
/// decodes, to what the oracle decodes it to.
void expect_matches_oracle(const Message& message) {
  const std::string wire = encode(message);
  ASSERT_EQ(wire, oracle_wsnp::encode(message));
  if (!all_finite(message)) {
    EXPECT_THROW((void)decode(wire), std::runtime_error) << printable(wire);
    return;
  }
  const Message ours = decode(wire);
  EXPECT_TRUE(same_message(ours, oracle_wsnp::decode(wire)))
      << printable(wire);
}

void expect_envelope_matches_oracle(const cluster::Envelope& envelope) {
  const std::string wire = cluster::encode_envelope(envelope);
  ASSERT_EQ(wire, oracle_clstr::encode_envelope(envelope));
  EXPECT_TRUE(same_envelope(cluster::decode_envelope(wire), envelope))
      << printable(wire);
}

/// Random field values: doubles from random bit patterns (every exponent,
/// subnormals, infinities and NaNs) and integers over their whole range.
struct RandomFields {
  std::mt19937_64 rng;

  template <typename Int>
  Int integer() {
    return static_cast<Int>(rng());
  }
  double any_double() { return std::bit_cast<double>(rng()); }
  double finite_double() {
    for (;;) {
      const double v = any_double();
      if (std::isfinite(v)) return v;
    }
  }
  std::string bytes(std::size_t max_size) {
    std::string out(rng() % (max_size + 1), '\0');
    for (char& c : out) c = static_cast<char>(rng());
    return out;
  }

  /// One message of the kind `kind` selects (of five), with doubles
  /// drawn by `pick`.
  template <typename Pick>
  Message message(int kind, Pick pick) {
    switch (kind % 5) {
      case 0:
        return ModelRequest{.channel = integer<int>(),
                            .location = {pick(), pick()}};
      case 1:
        return ModelResponse{.channel = integer<int>(), .descriptor = bytes(64)};
      case 2: {
        UploadRequest r;
        r.channel = integer<int>();
        r.contributor = "dev-" + std::to_string(rng() % 1000);
        r.request_id = integer<std::uint64_t>();
        r.location = {pick(), pick()};
        r.readings.resize(rng() % 3);
        for (campaign::Measurement& m : r.readings) {
          m.position = {pick(), pick()};
          m.raw = pick();
          m.rss_dbm = pick();
          m.cft_db = pick();
          m.aft_db = pick();
        }
        return r;
      }
      case 3:
        return UploadResponse{.accepted = integer<std::uint64_t>(),
                              .rejected = integer<std::uint64_t>(),
                              .pending = integer<std::uint64_t>(),
                              .ticket = integer<std::uint64_t>()};
      default:
        return ErrorResponse{.reason = "reason " + std::to_string(rng() % 100),
                             .code = static_cast<ErrorCode>(integer<int>()),
                             .channel = integer<int>()};
    }
  }

  cluster::Envelope envelope() {
    static const char* const kVerbs[] = {"wsnp", "repl", "pull", "state",
                                         "ok"};
    return cluster::Envelope{
        .verb = kVerbs[rng() % 5],
        .from = integer<cluster::NodeId>(),
        .tile = {integer<std::int32_t>(), integer<std::int32_t>()},
        .body = bytes(64)};
  }
};

const double kEdgeDoubles[] = {0.0,
                               -0.0,
                               5e-324,
                               -5e-324,
                               DBL_MIN,
                               DBL_MAX,
                               -DBL_MAX,
                               0.1,
                               1.0 / 3.0,
                               -1250.25,
                               1e16,
                               1e17,
                               1e-5,
                               -86.125,
                               123456789.125};
const int kEdgeInts[] = {std::numeric_limits<int>::min(), -1, 0, 46,
                         std::numeric_limits<int>::max()};
const std::uint64_t kEdgeU64[] = {0, 1, 41, 0xFEEDFACE12345678ull,
                                  std::numeric_limits<std::uint64_t>::max()};

TEST(ProtocolWire, DifferentialEncodeMatchesOracleOnEdgeValues) {
  std::string every_byte;
  for (int b = 0; b < 256; ++b) every_byte += static_cast<char>(b);
  const std::size_t n = std::size(kEdgeDoubles);
  for (const int channel : kEdgeInts) {
    for (std::size_t i = 0; i < n; ++i) {
      const double a = kEdgeDoubles[i];
      const double b = kEdgeDoubles[(i + 1) % n];
      expect_matches_oracle(ModelRequest{.channel = channel, .location = {a, b}});
    }
    for (const std::string& descriptor : {std::string(), every_byte}) {
      expect_matches_oracle(
          ModelResponse{.channel = channel, .descriptor = descriptor});
    }
    for (const std::uint64_t id : kEdgeU64) {
      UploadRequest r;
      r.channel = channel;
      r.contributor = "alice";
      r.request_id = id;
      r.location = {kEdgeDoubles[id % n], kEdgeDoubles[(id + 3) % n]};
      for (std::size_t i = 0; i < n; ++i) {
        campaign::Measurement m;
        m.position = {kEdgeDoubles[i], kEdgeDoubles[(i + 1) % n]};
        m.raw = kEdgeDoubles[(i + 2) % n];
        m.rss_dbm = kEdgeDoubles[(i + 3) % n];
        m.cft_db = kEdgeDoubles[(i + 4) % n];
        m.aft_db = kEdgeDoubles[(i + 5) % n];
        r.readings.push_back(m);
      }
      expect_matches_oracle(r);
    }
    // A reason with a line break encodes to its one-line form, which the
    // text oracle does not know (ErrorReasonWithALineBreakRoundTrips...).
    for (const char* reason : {"", "tile not resident", "  leading spaces"}) {
      expect_matches_oracle(ErrorResponse{.reason = reason,
                                          .code = static_cast<ErrorCode>(channel),
                                          .channel = channel});
    }
  }
  for (const std::uint64_t a : kEdgeU64) {
    for (const std::uint64_t b : kEdgeU64) {
      expect_matches_oracle(UploadResponse{
          .accepted = a, .rejected = b, .pending = a ^ b, .ticket = b});
    }
  }
  // Non-finite values encode as printf writes them, and never decode.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN()}) {
    expect_matches_oracle(ModelRequest{.channel = 1, .location = {bad, 0.0}});
  }

  const std::int32_t kTiles[] = {std::numeric_limits<std::int32_t>::min(), -1,
                                 0, std::numeric_limits<std::int32_t>::max()};
  for (const cluster::NodeId from : {cluster::NodeId{0}, cluster::NodeId{3},
                                     cluster::kClientNode}) {
    for (const std::int32_t tx : kTiles) {
      for (const std::int32_t ty : kTiles) {
        for (const std::string& body : {std::string(), every_byte}) {
          expect_envelope_matches_oracle(cluster::Envelope{
              .verb = "wsnp", .from = from, .tile = {tx, ty}, .body = body});
        }
      }
    }
  }
}

TEST(ProtocolWire, DifferentialEncodeMatchesOracleOnRandomFields) {
  RandomFields random{std::mt19937_64(29)};
  const auto any = [&random] { return random.any_double(); };
  const auto finite = [&random] { return random.finite_double(); };
  for (int trial = 0; trial < 10'000; ++trial) {
    for (int kind = 0; kind < 5; ++kind) {
      // Every double field takes every exponent; the finite draw also
      // checks that those frames decode as the oracle decodes them.
      expect_matches_oracle(random.message(kind, any));
      expect_matches_oracle(random.message(kind, finite));
    }
    expect_envelope_matches_oracle(random.envelope());
  }
}

/// `wire`'s body with whitespace-separated token `index` replaced by
/// `token`, re-framed with the new body length.
[[nodiscard]] std::string with_token(const std::string& wire,
                                     std::size_t index,
                                     const std::string& token) {
  const std::size_t nl = wire.find('\n');
  std::string header = wire.substr(0, nl);
  header.erase(header.rfind(' ') + 1);
  std::string body = wire.substr(nl + 1);
  std::size_t pos = 0;
  for (std::size_t i = 0;; ++i) {
    pos = body.find_first_not_of(" \t\n\v\f\r", pos);
    if (pos == std::string::npos) return {};
    const std::size_t end = std::min(body.find_first_of(" \t\n\v\f\r", pos),
                                     body.size());
    if (i == index) {
      body.replace(pos, end - pos, token);
      break;
    }
    pos = end;
  }
  return header + std::to_string(body.size()) + "\n" + body;
}

/// `wire` with `extra` appended to its body, re-framed.
[[nodiscard]] std::string with_suffix(const std::string& wire,
                                      const std::string& extra) {
  const std::size_t nl = wire.find('\n');
  std::string header = wire.substr(0, nl);
  header.erase(header.rfind(' ') + 1);
  const std::string body = wire.substr(nl + 1) + extra;
  return header + std::to_string(body.size()) + "\n" + body;
}

// Every truncation, every single-bit flip, hostile number tokens in place
// of each field and extra trailing bytes, for each message type and for
// the envelope: the library never accepts what the oracle rejects.
TEST(ProtocolWire, DifferentialDecodeIsNoMoreLenientThanOracle) {
  UploadRequest upload;
  upload.channel = 46;
  upload.contributor = "alice";
  upload.request_id = 0xC0FFEE;
  upload.location = geo::EnuPoint{5000.0, -250.5};
  for (int i = 0; i < 3; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{5000.0 + 12.25 * i, -250.5 - 7.0 * i};
    m.raw = -80.5 - i;
    m.rss_dbm = -86.125 - i;
    m.cft_db = -97.0 - i;
    m.aft_db = 0.1 - i;
    upload.readings.push_back(m);
  }
  // Descriptor bytes include spaces, a newline, a NUL and 0xff.
  const char kDescriptor[] = "WSDB 1 2\n 3\0\xff";
  const Message messages[] = {
      ModelRequest{.channel = 46, .location = geo::EnuPoint{1234.5, -678.9}},
      ModelResponse{.channel = 46,
                    .descriptor = std::string(kDescriptor, sizeof kDescriptor - 1)},
      upload,
      UploadResponse{.accepted = 5, .rejected = 2, .pending = 1, .ticket = 41},
      ErrorResponse{.reason = "tile not resident",
                    .code = ErrorCode::kNotReady,
                    .channel = 46}};
  const std::string kHostile[] = {
      "nan", "-nan", "NaN", "nan(1)", "inf", "-inf", "infinity", "1e400",
      "-1e400", "1e-400", "+1", "+0.5", "0x1p3", "0x10", "1e", "1e+", ".",
      "-", "--1", "1.5.3", "1,5", "abc", "-1", "-0", "5e-324", "4294967296",
      "9223372036854775808", "18446744073709551616", "1 2", "",
      "99999999999999999999999999"};
  for (const Message& message : messages) {
    const std::string wire = encode(message);
    SCOPED_TRACE(printable(wire.substr(0, wire.find('\n'))));
    waldo::testing::for_each_truncation_and_flip(
        wire, expect_no_more_lenient_than_oracle);
    for (std::size_t index = 0;; ++index) {
      if (with_token(wire, index, "0").empty()) break;
      for (const std::string& token : kHostile) {
        expect_no_more_lenient_than_oracle(with_token(wire, index, token));
      }
    }
    for (const char* extra : {"7", " 7", " 7\n", "junk", "\n", " \t"}) {
      expect_no_more_lenient_than_oracle(with_suffix(wire, extra));
    }
  }

  const std::string envelope = cluster::encode_envelope(
      cluster::Envelope{.verb = "wsnp",
                        .from = 2,
                        .tile = {-3, 17},
                        .body = encode(messages[3])});
  waldo::testing::for_each_truncation_and_flip(
      envelope, expect_envelope_no_more_lenient_than_oracle);
}

// The codecs keep no shared state: four threads encoding and decoding the
// same messages at once get exactly what one thread gets.
TEST(ProtocolWire, ConcurrentEncodeDecodeMatchesSerial) {
  RandomFields random{std::mt19937_64(30)};
  const auto finite = [&random] { return random.finite_double(); };
  std::vector<Message> messages;
  std::vector<cluster::Envelope> envelopes;
  for (int i = 0; i < 500; ++i) {
    messages.push_back(random.message(i, finite));
    envelopes.push_back(random.envelope());
  }
  std::vector<std::string> wires, envelope_wires;
  std::vector<Message> decoded;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    wires.push_back(encode(messages[i]));
    decoded.push_back(decode(wires.back()));
    envelope_wires.push_back(cluster::encode_envelope(envelopes[i]));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 4;
  std::vector<std::size_t> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t k = 0; k < messages.size(); ++k) {
          // Each thread starts at a different message.
          const std::size_t i = (k + 125 * t) % messages.size();
          const std::string wire = encode(messages[i]);
          const std::string envelope_wire =
              cluster::encode_envelope(envelopes[i]);
          if (wire != wires[i] ||
              !same_message(decode(wire), decoded[i]) ||
              envelope_wire != envelope_wires[i] ||
              !same_envelope(cluster::decode_envelope(envelope_wire),
                             envelopes[i])) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

class ProtocolFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    env_ = new rf::Environment(rf::make_metro_environment());
    const geo::DrivePath route = campaign::standard_route(*env_, 1200, 71);
    ModelConstructorConfig mc;
    mc.classifier = "naive_bayes";
    mc.num_features = 2;
    db_ = new service::SpectrumService(mc);
    sensors::Sensor usrp(sensors::usrp_b200_spec(), 72);
    usrp.calibrate();
    // Channel 46 collapses every locality to a constant on this route;
    // channel 21 trains a classifier in one of them.
    for (const int channel : {46, 21}) {
      db_->ingest_campaign(
          campaign::collect_channel(*env_, usrp, channel, route.readings));
    }
  }
  static void TearDownTestSuite() {
    delete env_;
    delete db_;
    env_ = nullptr;
    db_ = nullptr;
  }
  static rf::Environment* env_;
  static service::SpectrumService* db_;
};

rf::Environment* ProtocolFixture::env_ = nullptr;
service::SpectrumService* ProtocolFixture::db_ = nullptr;

TEST_F(ProtocolFixture, ClientFetchesWorkingModelThroughServer) {
  service::ServiceFrontend frontend(*db_, 1);
  const auto fetch_model = [&frontend](int channel) {
    const Message reply = decode(frontend.handle(encode(ModelRequest{
        .channel = channel, .location = geo::EnuPoint{5000.0, 5000.0}})));
    return WhiteSpaceModel::deserialize(
        std::get<ModelResponse>(reply).descriptor);
  };

  const WhiteSpaceModel model = fetch_model(46);
  EXPECT_EQ(model.channel(), 46);
  // The transported model is usable.
  const auto row = feature_row(geo::EnuPoint{5000.0, 5000.0}, -86.0, -97.0,
                               -99.0, model.num_features());
  const int decision = model.predict(row);
  EXPECT_TRUE(decision == ml::kSafe || decision == ml::kNotSafe);
  EXPECT_EQ(db_->counters().model_downloads, 1u);

  // A descriptor with a trained classifier survives the trip too.
  const WhiteSpaceModel trained = fetch_model(21);
  EXPECT_EQ(trained.channel(), 21);
  EXPECT_LT(trained.num_constant_localities(), trained.num_localities());
}

TEST_F(ProtocolFixture, UnknownChannelYieldsProtocolError) {
  service::ServiceFrontend frontend(*db_, 1);
  const Message reply = decode(frontend.handle(encode(
      ModelRequest{.channel = 33, .location = geo::EnuPoint{0.0, 0.0}})));
  const auto* error = std::get_if<ErrorResponse>(&reply);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->channel, 33);
}

TEST_F(ProtocolFixture, UploadsFlowThroughTheProtocol) {
  service::ServiceFrontend frontend(*db_, 1);

  const campaign::ChannelDataset stored = db_->dataset_snapshot(46);
  UploadRequest request;
  request.channel = 46;
  request.contributor = "bob";
  request.readings.assign(stored.readings.begin(),
                          stored.readings.begin() + 10);
  for (auto& m : request.readings) m.position.east_m += 30.0;
  const UploadResponse response =
      std::get<UploadResponse>(decode(frontend.handle(encode(request))));
  EXPECT_EQ(response.accepted + response.rejected + response.pending, 10u);
  EXPECT_GT(response.accepted, 0u);
}

// Regression for the serving path: a failing request must come back with
// the machine-readable code AND the channel it failed on, so routers can
// distinguish "retry elsewhere" from "give up" without parsing prose.
TEST_F(ProtocolFixture, ServerErrorsCarryCodeAndFailingChannel) {
  service::ServiceFrontend frontend(*db_, 1);

  const Message model_err =
      decode(frontend.handle(encode(ModelRequest{.channel = 33})));
  const auto* e1 = std::get_if<ErrorResponse>(&model_err);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(e1->code, ErrorCode::kUnknownChannel);
  EXPECT_EQ(e1->channel, 33);
  EXPECT_FALSE(is_retryable(e1->code));

  UploadRequest upload;
  upload.channel = 34;
  upload.contributor = "mallory";
  const Message upload_err = decode(frontend.handle(encode(upload)));
  const auto* e2 = std::get_if<ErrorResponse>(&upload_err);
  ASSERT_NE(e2, nullptr);
  EXPECT_EQ(e2->code, ErrorCode::kUnknownChannel);
  EXPECT_EQ(e2->channel, 34);

  const Message garbage_err = decode(frontend.handle("complete garbage"));
  const auto* e3 = std::get_if<ErrorResponse>(&garbage_err);
  ASSERT_NE(e3, nullptr);
  EXPECT_EQ(e3->code, ErrorCode::kMalformed);

  const Message legacy_err = decode(
      frontend.handle("WSNP/1 error 20\nchannel unavailable\n"));
  const auto* e5 = std::get_if<ErrorResponse>(&legacy_err);
  ASSERT_NE(e5, nullptr);
  EXPECT_EQ(e5->code, ErrorCode::kMalformed);

  const Message wrong_err =
      decode(frontend.handle(encode(UploadResponse{.accepted = 1})));
  const auto* e4 = std::get_if<ErrorResponse>(&wrong_err);
  ASSERT_NE(e4, nullptr);
  EXPECT_EQ(e4->code, ErrorCode::kBadRequest);
}

TEST_F(ProtocolFixture, ServerSurvivesGarbageAndWrongMessages) {
  service::ServiceFrontend frontend(*db_, 1);
  // Garbage in, error message out — never an exception.
  const Message reply = decode(frontend.handle("complete garbage"));
  EXPECT_NE(std::get_if<ErrorResponse>(&reply), nullptr);
  // A response message sent as a request is answered with an error too.
  const Message reply2 =
      decode(frontend.handle(encode(UploadResponse{.accepted = 1})));
  EXPECT_NE(std::get_if<ErrorResponse>(&reply2), nullptr);
}

// Every WSNP message type, cut short at any length, is rejected; with any
// single bit flipped it either decodes or is rejected with
// std::runtime_error. The model response carries a real binary descriptor.
TEST_F(ProtocolFixture, DecodeRejectsEveryTruncationAndContainsEveryBitFlip) {
  // Channel 46 labels one class everywhere on this route, which would
  // collapse every locality to a constant; label by side of the map
  // instead so that the descriptor holds a trained SVM.
  const campaign::ChannelDataset dataset = db_->dataset_snapshot(46);
  std::vector<int> labels;
  for (const campaign::Measurement& m : dataset.readings) {
    labels.push_back(m.position.east_m < 5000.0 ? ml::kSafe : ml::kNotSafe);
  }
  const std::string descriptor =
      ModelConstructor().build(dataset, labels).serialize();

  UploadRequest upload;
  upload.channel = 46;
  upload.contributor = "alice";
  upload.request_id = 0xC0FFEE;
  upload.location = geo::EnuPoint{5000.0, -250.5};
  for (int i = 0; i < 3; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{5000.0 + 12.25 * i, -250.5 - 7.0 * i};
    m.raw = -80.5 - i;
    m.rss_dbm = -86.125 - i;
    m.cft_db = -97.0 - i;
    m.aft_db = -99.5 - i;
    upload.readings.push_back(m);
  }

  const Message messages[] = {
      ModelRequest{.channel = 46, .location = geo::EnuPoint{1234.5, -678.9}},
      ModelResponse{.channel = 46, .descriptor = descriptor},
      upload,
      UploadResponse{.accepted = 5, .rejected = 2, .pending = 1, .ticket = 41},
      ErrorResponse{.reason = "tile not resident",
                    .code = ErrorCode::kNotReady,
                    .channel = 46}};
  for (const Message& message : messages) {
    const std::string wire = encode(message);
    SCOPED_TRACE(wire.substr(0, wire.find('\n')));
    waldo::testing::expect_truncations_rejected_and_flips_contained(
        wire, [](const std::string& bytes) { return decode(bytes); });
  }
}

}  // namespace
}  // namespace waldo::core
