#include "waldo/cluster/wire.hpp"

#include "waldo/codec/codec.hpp"

#include <charconv>
#include <sstream>
#include <utility>
#include <stdexcept>
#include <string_view>

namespace waldo::cluster {

namespace {

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

}  // namespace

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

std::string encode_repl_entry(const ReplEntry& entry) {
  std::ostringstream os;
  os << entry.channel << " " << entry.ticket << " " << entry.request_id
     << " " << entry.upload_wire.size() << "\n"
     << entry.upload_wire;
  return os.str();
}

ReplEntry decode_repl_entry(const std::string& body) {
  const std::size_t nl = body.find('\n');
  if (nl == std::string::npos) {
    throw std::runtime_error("CLSTR: truncated repl entry");
  }
  const auto tokens =
      split_tokens(std::string_view(body.data(), nl), 4, "repl entry");
  ReplEntry entry;
  entry.channel = parse_int<int>(tokens[0], "repl channel");
  entry.ticket = parse_int<std::uint64_t>(tokens[1], "repl ticket");
  entry.request_id = parse_int<std::uint64_t>(tokens[2], "repl request id");
  const auto length = parse_int<std::size_t>(tokens[3], "repl wire length");
  entry.upload_wire = body.substr(nl + 1);
  if (entry.upload_wire.size() != length) {
    throw std::runtime_error("CLSTR: repl wire length mismatch");
  }
  return entry;
}

std::string encode_tile_snapshot(const TileSnapshot& snapshot) {
  codec::Writer out;
  out.u64(snapshot.channels.size());
  for (const core::ChannelState& state : snapshot.channels) state.encode(out);
  out.u64(snapshot.dedup.size());
  for (const DedupRecord& r : snapshot.dedup) {
    out.u64(r.request_id);
    out.u64(r.age_ns);
    out.u64(r.ledger.accepted);
    out.u64(r.ledger.rejected);
    out.u64(r.ledger.pending);
    out.u64(r.ledger.ticket);
  }
  return std::move(out).finish();
}

TileSnapshot decode_tile_snapshot(const std::string& body) {
  codec::Reader in(body);
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
