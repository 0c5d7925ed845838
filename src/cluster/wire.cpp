#include "waldo/cluster/wire.hpp"

#include "waldo/codec/codec.hpp"
#include "waldo/core/wire_text.hpp"

#include <array>
#include <limits>
#include <utility>
#include <stdexcept>
#include <string_view>

namespace waldo::cluster {

namespace {

constexpr std::string_view kMagic = "CLSTR/1";
constexpr std::string_view kFraming = "CLSTR";  // error-message prefix

/// Splits the header line into exactly its six single-space-separated
/// tokens. Numeric tokens are then read whole, as WSNP's fields are.
[[nodiscard]] std::array<std::string_view, 6> header_tokens(
    std::string_view line) {
  std::array<std::string_view, 6> tokens;
  std::size_t pos = 0;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::size_t space = line.find(' ', pos);
    const bool last = i + 1 == tokens.size();
    if (last != (space == std::string_view::npos)) {
      throw std::runtime_error("CLSTR: malformed envelope header");
    }
    tokens[i] = line.substr(pos, last ? std::string_view::npos : space - pos);
    pos = space + 1;
  }
  return tokens;
}

}  // namespace

std::string encode_envelope(const Envelope& envelope) {
  if (envelope.verb.empty() ||
      envelope.verb.find_first_of(" \t\n") != std::string::npos) {
    throw std::invalid_argument("CLSTR verb must be a single token");
  }
  // Four numbers of at most 20 bytes each, five spaces and a newline.
  std::string out;
  out.reserve(kMagic.size() + envelope.verb.size() + 86 +
              envelope.body.size());
  core::wire_text::append_line(out, kMagic, envelope.verb, envelope.from,
                               envelope.tile.tx, envelope.tile.ty,
                               envelope.body.size());
  out += envelope.body;
  return out;
}

Envelope decode_envelope(const std::string& wire) {
  const std::size_t nl = wire.find('\n');
  if (nl == std::string::npos) {
    throw std::runtime_error("CLSTR: missing header line");
  }
  const auto tokens = header_tokens(std::string_view(wire.data(), nl));
  if (tokens[0] != kMagic) throw std::runtime_error("CLSTR: bad magic");
  using core::wire_text::parse_int;
  Envelope env;
  env.verb = std::string(tokens[1]);
  if (env.verb.empty()) throw std::runtime_error("CLSTR: empty verb");
  env.from = parse_int<NodeId>(tokens[2], kFraming, "sender id");
  env.tile.tx = parse_int<std::int32_t>(tokens[3], kFraming, "tile x");
  env.tile.ty = parse_int<std::int32_t>(tokens[4], kFraming, "tile y");
  const auto length =
      parse_int<std::size_t>(tokens[5], kFraming, "body length");
  env.body = wire.substr(nl + 1);
  if (env.body.size() != length) {
    throw std::runtime_error("CLSTR: body length mismatch");
  }
  return env;
}

std::string encode_repl_entry(const ReplEntry& entry) {
  codec::Writer out;
  out.i64(entry.channel);
  out.u64(entry.ticket);
  out.u64(entry.request_id);
  out.str(entry.upload_wire);
  return std::move(out).finish();
}

ReplEntry decode_repl_entry(const std::string& body) {
  codec::Reader in(body);
  ReplEntry entry;
  const std::int64_t channel = in.i64();
  if (channel < std::numeric_limits<int>::min() ||
      channel > std::numeric_limits<int>::max()) {
    throw codec::Error("repl channel out of range");
  }
  entry.channel = static_cast<int>(channel);
  entry.ticket = in.u64();
  entry.request_id = in.u64();
  entry.upload_wire = in.str();
  in.expect_done();
  return entry;
}

TileSnapshotWriter::TileSnapshotWriter(std::size_t channel_count)
    : remaining_(channel_count) {
  out_.u64(kTileSnapshotLayout);
  out_.u64(channel_count);
}

void TileSnapshotWriter::channel(const core::ChannelState& state) {
  if (remaining_ == 0) {
    throw std::logic_error("tile snapshot: more channels than announced");
  }
  --remaining_;
  state.encode(out_);
}

std::string TileSnapshotWriter::finish(
    const std::vector<DedupRecord>& dedup) && {
  if (remaining_ != 0) {
    throw std::logic_error("tile snapshot: fewer channels than announced");
  }
  out_.u64(dedup.size());
  for (const DedupRecord& r : dedup) {
    out_.u64(r.request_id);
    out_.u64(r.age_ns);
    out_.u64(r.ledger.accepted);
    out_.u64(r.ledger.rejected);
    out_.u64(r.ledger.pending);
    out_.u64(r.ledger.ticket);
  }
  return std::move(out_).finish();
}

TileSnapshot decode_tile_snapshot(const std::string& body) {
  codec::Reader in(body);
  if (in.u64() != kTileSnapshotLayout) {
    throw codec::Error("unsupported tile snapshot layout");
  }
  TileSnapshot snapshot;
  // A channel state is at least a channel, a name and four counts.
  snapshot.channels.resize(in.count(6));
  for (core::ChannelState& state : snapshot.channels) {
    state = core::ChannelState::decode(in);
  }
  snapshot.dedup.resize(in.count(6));
  for (DedupRecord& r : snapshot.dedup) {
    r.request_id = in.u64();
    r.age_ns = in.u64();
    r.ledger.accepted = static_cast<std::size_t>(in.u64());
    r.ledger.rejected = static_cast<std::size_t>(in.u64());
    r.ledger.pending = static_cast<std::size_t>(in.u64());
    r.ledger.ticket = in.u64();
  }
  in.expect_done();
  return snapshot;
}

}  // namespace waldo::cluster
