#include "waldo/campaign/dataset_io.hpp"

#include <charconv>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace waldo::campaign {

void write_csv(std::ostream& out, const ChannelDataset& dataset) {
  out << "# waldo-dataset v1 channel=" << dataset.channel
      << " sensor=" << dataset.sensor_name << "\n";
  out << "east_m,north_m,raw,rss_dbm,cft_db,aft_db,true_rss_dbm\n";
  // max_digits10 (17) is the round-trip guarantee: 12 significant digits
  // silently perturb doubles on write→read, breaking the repo's
  // bit-identical golden-hash contracts.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const Measurement& m : dataset.readings) {
    out << m.position.east_m << ',' << m.position.north_m << ',' << m.raw
        << ',' << m.rss_dbm << ',' << m.cft_db << ',' << m.aft_db << ','
        << m.true_rss_dbm << '\n';
  }
}

void write_csv_file(const std::string& path, const ChannelDataset& dataset) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  write_csv(out, dataset);
}

ChannelDataset read_csv(std::istream& in) {
  ChannelDataset ds;
  std::string line;
  if (!std::getline(in, line) || line.rfind("# waldo-dataset v1", 0) != 0) {
    throw std::runtime_error("missing waldo-dataset header");
  }
  {
    // `sensor=` comes last and takes the rest of the line: sensor names
    // hold spaces ("USRP B200").
    if (const auto at = line.find(" sensor="); at != std::string::npos) {
      ds.sensor_name = line.substr(at + 8);
      line.resize(at);
    }
    std::istringstream hdr(line);
    std::string tok;
    while (hdr >> tok) {
      if (tok.rfind("channel=", 0) != 0) continue;
      const char* last = tok.data() + tok.size();
      const auto [end, error] =
          std::from_chars(tok.data() + 8, last, ds.channel);
      if (error != std::errc{} || end != last) {
        throw std::runtime_error("malformed dataset header: " + tok);
      }
    }
  }
  if (!std::getline(in, line)) {
    throw std::runtime_error("missing column header");
  }
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    Measurement m;
    // Each separator must actually be a comma — extracting into a char
    // accepts any byte, which would silently misparse rows written with
    // the wrong delimiter (or shifted columns).
    const auto comma_then = [&row](double& value) {
      char separator = '\0';
      return static_cast<bool>(row >> separator) && separator == ',' &&
             static_cast<bool>(row >> value);
    };
    bool ok = static_cast<bool>(row >> m.position.east_m);
    ok = ok && comma_then(m.position.north_m) && comma_then(m.raw) &&
         comma_then(m.rss_dbm) && comma_then(m.cft_db) &&
         comma_then(m.aft_db) && comma_then(m.true_rss_dbm);
    if (ok) {
      char stray = '\0';
      ok = !(row >> stray);  // no trailing junk after the last column
    }
    if (!ok) {
      throw std::runtime_error("malformed dataset row: " + line);
    }
    ds.readings.push_back(m);
  }
  return ds;
}

ChannelDataset read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return read_csv(in);
}

}  // namespace waldo::campaign
