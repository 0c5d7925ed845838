// The White Space Network Protocol of Figure 8: the wire format a mobile
// WSD speaks to the central spectrum database. Four request/response pairs
// cover the system's online phase — model download (Local Model Parameters
// Updater) and measurement upload (Global Model Updater) — over any byte
// transport (the reproduction's tests run it over a lambda; a deployment
// would run it over TCP/HTTP).
//
// Wire format: a one-line header `WSNP/1 <type> <body-bytes>` followed by
// `\n` and the body. Bodies are line-oriented text, matching the model
// descriptors they carry.
#pragma once

#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "waldo/campaign/measurement.hpp"
#include "waldo/core/database.hpp"

namespace waldo::core {

struct ModelRequest {
  int channel = 0;
  /// Requester location; lets the server pick the covering model (and,
  /// in a multi-area deployment, the right region shard).
  geo::EnuPoint location;
};

struct ModelResponse {
  int channel = 0;
  std::string descriptor;  ///< serialized WhiteSpaceModel
};

struct UploadRequest {
  int channel = 0;
  /// Single-token identity (no whitespace) — enforced at encode time.
  std::string contributor;
  /// Client-chosen request identity. A tier that retries uploads (the
  /// cluster router) sets this to a unique value per logical request so
  /// the server can deduplicate redelivered frames; 0 means "no dedup".
  std::uint64_t request_id = 0;
  /// Uploader location — routing metadata. A sharded deployment picks the
  /// owning tile/replicas from it without parsing the readings.
  geo::EnuPoint location;
  std::vector<campaign::Measurement> readings;  ///< I/Q not transmitted
};

struct UploadResponse {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t pending = 0;
  /// Per-channel apply ticket (see core::UploadResult::ticket): where this
  /// batch landed in the channel's total upload order. Lets a client — or
  /// the serving-layer stress test — reconstruct the serial order that a
  /// concurrent server actually applied.
  std::uint64_t ticket = 0;
};

/// Machine-readable failure classes. The split that matters operationally
/// is retryable vs. permanent: a router that sees kNotOwner should fail
/// over to another replica, while resending a kMalformed frame anywhere
/// would fail identically.
enum class ErrorCode : int {
  kUnspecified = 0,     ///< unclassified failure (the default)
  kMalformed = 1,       ///< frame failed to decode — permanent
  kUnknownChannel = 2,  ///< no data for the channel — permanent
  kBadRequest = 3,      ///< wrong message kind for this endpoint — permanent
  kInternal = 4,        ///< server-side exception — permanent
  kNotOwner = 5,        ///< replica does not own the key — retry elsewhere
  kNotReady = 6,        ///< replica is (re)syncing — retry elsewhere
  kUnavailable = 7,     ///< transient (shutting down, overload) — retry
};

/// True for the codes a client should retry (possibly against a different
/// replica); false for codes where the request itself is at fault.
[[nodiscard]] constexpr bool is_retryable(ErrorCode code) noexcept {
  return code == ErrorCode::kNotOwner || code == ErrorCode::kNotReady ||
         code == ErrorCode::kUnavailable;
}

struct ErrorResponse {
  std::string reason;
  ErrorCode code = ErrorCode::kUnspecified;
  /// The channel the failing request addressed; 0 when the failure is not
  /// channel-specific (e.g. an undecodable frame).
  int channel = 0;
};

using Message = std::variant<ModelRequest, ModelResponse, UploadRequest,
                             UploadResponse, ErrorResponse>;

/// Serialises a message to its wire form.
[[nodiscard]] std::string encode(const Message& message);

/// Parses a wire string. Throws std::runtime_error on malformed input
/// (bad magic, unknown type, truncated body).
[[nodiscard]] Message decode(const std::string& wire);

/// Server side: binds a SpectrumStore behind the protocol. Every request
/// wire string maps to exactly one response wire string; internal errors
/// surface as ErrorResponse rather than exceptions. handle() keeps no
/// per-request state, so it is reentrant: concurrent calls are safe
/// whenever the backing store is thread-safe (service::SpectrumService is;
/// a bare SpectrumDatabase is single-threaded).
class ProtocolServer {
 public:
  explicit ProtocolServer(SpectrumStore& store) : store_(&store) {}

  [[nodiscard]] std::string handle(const std::string& request_wire) const;

 private:
  SpectrumStore* store_;
};

/// Client side: issues typed requests through a caller-supplied transport
/// (a callable taking the request wire and returning the response wire).
class ProtocolClient {
 public:
  using Transport = std::function<std::string(const std::string&)>;

  explicit ProtocolClient(Transport transport)
      : transport_(std::move(transport)) {}

  /// Downloads and deserialises the model for a channel. Throws
  /// std::runtime_error carrying the server's reason on error replies.
  [[nodiscard]] WhiteSpaceModel fetch_model(int channel,
                                            const geo::EnuPoint& location);

  /// Uploads measurements; returns the server's ledger. `location` and
  /// `request_id` ride along as routing/dedup metadata (see
  /// UploadRequest); single-node callers may leave them defaulted.
  UploadResponse upload(int channel, const std::string& contributor,
                        std::span<const campaign::Measurement> readings,
                        const geo::EnuPoint& location = {},
                        std::uint64_t request_id = 0);

 private:
  Transport transport_;
};

}  // namespace waldo::core
