// make_goldens — regenerates the committed golden descriptor files under
// tests/golden/: for every classifier family, one model trained on a fixed
// deterministic dataset, written as a binary v1 descriptor
// (<family>_v1.wsm). The goldens pin the wire format: the compatibility
// test decodes the committed files and re-encodes them byte for byte, so
// an accidental format change fails CI even though the files are never
// rebuilt there (model *training* draws std::normal_distribution values,
// which are implementation-defined across standard libraries — the files
// must come from one machine, this tool, and be committed).
//
//   make_goldens [output-dir]   (default tests/golden)
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>

#include "waldo/campaign/measurement.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"

using namespace waldo;

namespace {

/// Same deterministic diagonal field `waldo model-size` uses: a strong
/// transmitter to the south-west, white space to the north-east. The
/// diagonal boundary cuts across the k-means localities, so every
/// locality sees both classes and trains a real classifier (goldens with
/// all-constant localities would not pin the per-family payloads).
campaign::ChannelDataset split_dataset(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, 10'000.0);
  std::normal_distribution<double> jitter(0.0, 1.0);
  campaign::ChannelDataset ds;
  ds.channel = 30;
  ds.sensor_name = "synthetic";
  for (std::size_t i = 0; i < n; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    const bool occupied = m.position.east_m + m.position.north_m < 10'000.0;
    m.rss_dbm = (occupied ? -75.0 : -95.0) + jitter(rng);
    m.cft_db = (occupied ? -85.0 : -105.0) + jitter(rng);
    m.aft_db = (occupied ? -95.0 : -108.0) + jitter(rng);
    ds.readings.push_back(m);
  }
  return ds;
}

void write_file(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  if (!out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw std::runtime_error("cannot write " + path.string());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "tests/golden";
  std::filesystem::create_directories(dir);
  const campaign::ChannelDataset ds = split_dataset(500, 1234);

  static constexpr const char* kFamilies[] = {
      "svm", "naive_bayes", "decision_tree", "knn", "logistic_regression"};
  for (const char* family : kFamilies) {
    core::ModelConstructorConfig cfg;
    cfg.classifier = family;
    cfg.num_features = 3;
    cfg.num_localities = 3;
    const core::WhiteSpaceModel model =
        core::ModelConstructor(cfg).build_with_labeling(ds, {});
    const std::string binary = model.serialize();
    write_file(dir / (std::string(family) + "_v1.wsm"), binary);
    std::printf("%-22s v1 %6zu B\n", family, binary.size());
  }
  std::printf("goldens written to %s\n", dir.string().c_str());
  return 0;
}
