#include "waldo/core/protocol.hpp"

#include <charconv>
#include <iomanip>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace waldo::core {

namespace {

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

}  // namespace

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

std::string ProtocolServer::handle(const std::string& request_wire) const {
  Message request;
  try {
    request = decode(request_wire);
  } catch (const std::exception& e) {
    return encode(ErrorResponse{.reason = e.what(),
                                .code = ErrorCode::kMalformed});
  }

  if (const auto* r = std::get_if<ModelRequest>(&request)) {
    try {
      if (!store_->has_channel(r->channel)) {
        return encode(ErrorResponse{
            .reason = "no data for channel " + std::to_string(r->channel),
            .code = ErrorCode::kUnknownChannel,
            .channel = r->channel});
      }
      return encode(ModelResponse{
          .channel = r->channel,
          .descriptor = store_->download_model(r->channel)});
    } catch (const std::exception& e) {
      return encode(ErrorResponse{.reason = e.what(),
                                  .code = ErrorCode::kInternal,
                                  .channel = r->channel});
    }
  }
  if (const auto* r = std::get_if<UploadRequest>(&request)) {
    try {
      const UploadResult result =
          store_->upload_measurements(r->channel, r->readings,
                                      r->contributor);
      return encode(UploadResponse{.accepted = result.accepted,
                                   .rejected = result.rejected,
                                   .pending = result.pending,
                                   .ticket = result.ticket});
    } catch (const std::out_of_range& e) {
      // SpectrumDatabase/SpectrumService throw out_of_range for uploads
      // addressing a channel that was never bootstrapped.
      return encode(ErrorResponse{.reason = e.what(),
                                  .code = ErrorCode::kUnknownChannel,
                                  .channel = r->channel});
    } catch (const std::exception& e) {
      return encode(ErrorResponse{.reason = e.what(),
                                  .code = ErrorCode::kInternal,
                                  .channel = r->channel});
    }
  }
  return encode(
      ErrorResponse{.reason = "server only accepts request messages",
                    .code = ErrorCode::kBadRequest});
}

WhiteSpaceModel ProtocolClient::fetch_model(int channel,
                                            const geo::EnuPoint& location) {
  const Message reply = decode(transport_(
      encode(ModelRequest{.channel = channel, .location = location})));
  if (const auto* error = std::get_if<ErrorResponse>(&reply)) {
    throw std::runtime_error("WSNP error: " + error->reason);
  }
  const auto* response = std::get_if<ModelResponse>(&reply);
  if (response == nullptr) {
    throw std::runtime_error("WSNP: unexpected reply to model request");
  }
  return WhiteSpaceModel::deserialize(response->descriptor);
}

UploadResponse ProtocolClient::upload(
    int channel, const std::string& contributor,
    std::span<const campaign::Measurement> readings,
    const geo::EnuPoint& location, std::uint64_t request_id) {
  UploadRequest request;
  request.channel = channel;
  request.contributor = contributor;
  request.request_id = request_id;
  request.location = location;
  request.readings.assign(readings.begin(), readings.end());
  const Message reply = decode(transport_(encode(request)));
  if (const auto* error = std::get_if<ErrorResponse>(&reply)) {
    throw std::runtime_error("WSNP error: " + error->reason);
  }
  const auto* response = std::get_if<UploadResponse>(&reply);
  if (response == nullptr) {
    throw std::runtime_error("WSNP: unexpected reply to upload request");
  }
  return *response;
}

}  // namespace waldo::core
