// End-to-end descriptor wire-format tests across every classifier family:
// bit-identical binary round trips, v1 golden-file compatibility, a
// deterministic corruption sweep (every truncation length, one bit flip per
// byte), rejection of hostile non-binary descriptors, and locale
// robustness. The goldens under tests/golden/ are committed artifacts
// regenerated only by tools/make_goldens after an *intentional* format
// change — this test never rebuilds them.
#include <cstddef>
#include <fstream>
#include <locale>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "waldo/campaign/measurement.hpp"
#include "waldo/codec/codec.hpp"
#include "waldo/core/features.hpp"
#include "waldo/core/model.hpp"
#include "waldo/core/model_constructor.hpp"
#include "waldo/core/protocol.hpp"

namespace waldo::core {
namespace {

constexpr const char* kFamilies[] = {"svm", "naive_bayes", "decision_tree",
                                     "knn", "logistic_regression"};

/// Deterministic diagonal field (transmitter to the south-west): the class
/// boundary cuts across the k-means localities, so every locality trains a
/// real classifier and the descriptor exercises the family's payload.
campaign::ChannelDataset make_diagonal_dataset(std::size_t n,
                                               std::uint64_t seed) {
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

WhiteSpaceModel build_model(const std::string& family) {
  const auto ds = make_diagonal_dataset(400, 7);
  ModelConstructorConfig cfg;
  cfg.classifier = family;
  cfg.num_features = 3;
  cfg.num_localities = 3;
  return ModelConstructor(cfg).build_with_labeling(ds, {});
}

/// Fixed probe grid: 5x5 positions, each probed with both an
/// occupied-looking and a vacant-looking signal row (num_features = 3).
std::vector<std::vector<double>> probe_grid() {
  std::vector<std::vector<double>> rows;
  for (double east : {500.0, 2'500.0, 5'000.0, 7'500.0, 9'500.0}) {
    for (double north : {500.0, 2'500.0, 5'000.0, 7'500.0, 9'500.0}) {
      const geo::EnuPoint p{east, north};
      rows.push_back(feature_row(p, -75.3, -85.1, -94.9, 3));
      rows.push_back(feature_row(p, -95.2, -104.8, -107.6, 3));
    }
  }
  return rows;
}

void expect_same_predictions(const WhiteSpaceModel& a, const WhiteSpaceModel& b,
                             const std::string& context) {
  for (const auto& row : probe_grid()) {
    ASSERT_EQ(a.predict(row), b.predict(row))
        << context << " at (" << row[0] << ", " << row[1] << ")";
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "cannot open golden file " << path;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---------------------------------------------------------------------------
// Round trips

TEST(ModelCodec, BinaryRoundTripIsByteIdentical) {
  for (const char* family : kFamilies) {
    const WhiteSpaceModel model = build_model(family);
    const std::string first = model.serialize();
    const WhiteSpaceModel back = WhiteSpaceModel::deserialize(first);
    const std::string second = back.serialize();
    EXPECT_EQ(first, second) << family
                             << ": serialize -> deserialize -> serialize "
                                "must be byte-identical";
    EXPECT_EQ(back.channel(), model.channel()) << family;
    EXPECT_EQ(back.classifier_kind(), model.classifier_kind()) << family;
    EXPECT_EQ(back.num_localities(), model.num_localities()) << family;
    EXPECT_EQ(model.descriptor_size_bytes(), first.size()) << family;
    expect_same_predictions(model, back, std::string(family) + " binary");
  }
}

// ---------------------------------------------------------------------------
// Golden files (committed wire-format pins)

TEST(ModelCodec, GoldenV1DecodesAndReencodesByteIdentically) {
  for (const char* family : kFamilies) {
    const std::string v1_bytes =
        read_file(std::string(WALDO_GOLDEN_DIR) + "/" + family + "_v1.wsm");
    ASSERT_FALSE(v1_bytes.empty()) << family;

    const WhiteSpaceModel v1 = WhiteSpaceModel::deserialize(v1_bytes);
    EXPECT_EQ(v1.channel(), 30) << family;
    EXPECT_EQ(v1.classifier_kind(), family);

    // The binary form is canonical: decoding the committed v1 bytes and
    // re-encoding must reproduce them exactly.
    EXPECT_EQ(v1.serialize(), v1_bytes)
        << family << ": v1 golden no longer re-encodes byte-identically — "
        << "the wire format changed. If intentional, bump kFormatVersion "
        << "and regenerate with tools/make_goldens.";
  }
}

// ---------------------------------------------------------------------------
// Corruption sweep

TEST(ModelCodec, EveryTruncationAndByteFlipIsRejected) {
  for (const char* family : kFamilies) {
    const std::string good = build_model(family).serialize();
    ASSERT_NO_THROW((void)WhiteSpaceModel::deserialize(good)) << family;

    // Truncate at every byte offset.
    for (std::size_t len = 0; len < good.size(); ++len) {
      EXPECT_THROW((void)WhiteSpaceModel::deserialize(good.substr(0, len)),
                   codec::Error)
          << family << ": truncation to " << len << " bytes accepted";
    }

    // Flip one bit in every byte position.
    for (std::size_t pos = 0; pos < good.size(); ++pos) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
      EXPECT_THROW((void)WhiteSpaceModel::deserialize(bad), codec::Error)
          << family << ": bit flip at byte " << pos << " accepted";
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile descriptors without the binary magic

/// Text descriptors whose counts claim far more memory than the host has:
/// 4e9 localities in the header alone, and one knn locality claiming a
/// 200000 x 200000 training matrix. Only the binary container is a
/// descriptor, so both must fail with codec::Error before any allocation.
std::vector<std::string> hostile_text_descriptors() {
  return {
      "waldo_model v1 channel=30 features=2 kind=knn localities=4000000000\n",
      "waldo_model v1 channel=30 features=2 kind=knn localities=1\n"
      "0 0\n"
      "classifier\n"
      "knn 3 200000 200000\n"
      "standardizer 2\n0 0 \n1 1 \n",
  };
}

TEST(ModelCodec, HostileTextDescriptorsAreRejected) {
  for (const std::string& bytes : hostile_text_descriptors()) {
    EXPECT_THROW((void)WhiteSpaceModel::deserialize(bytes), codec::Error)
        << bytes;
  }
}

TEST(ModelCodec, FetchModelRejectsHostileTextDescriptors) {
  for (const std::string& bytes : hostile_text_descriptors()) {
    const auto transport = [&bytes](const std::string&) {
      return encode(ModelResponse{.channel = 30, .descriptor = bytes});
    };
    const Message reply =
        decode(transport(encode(ModelRequest{.channel = 30, .location = {}})));
    EXPECT_THROW((void)WhiteSpaceModel::deserialize(
                     std::get<ModelResponse>(reply).descriptor),
                 codec::Error)
        << bytes;
  }
}

// ---------------------------------------------------------------------------
// Locale robustness

class CommaDecimalPunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
};

/// Installs a comma-decimal global locale for the test's lifetime (models
/// the de_DE-style environments where unimbued streams print "3,14").
class ScopedCommaLocale {
 public:
  ScopedCommaLocale()
      : previous_(std::locale::global(
            std::locale(std::locale::classic(), new CommaDecimalPunct))) {}
  ~ScopedCommaLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

TEST(ModelCodec, TextFormSurvivesCommaDecimalLocale) {
  const WhiteSpaceModel model = build_model("svm");
  {
    const ScopedCommaLocale scoped;
    // Sanity: the hostile locale is really active for unimbued streams.
    std::ostringstream probe;
    probe << 3.5;
    ASSERT_EQ(probe.str(), "3,5")
        << "global comma locale not in effect; test would prove nothing";

    // The binary form is locale-immune by construction; spot-check anyway.
    const WhiteSpaceModel bin_back =
        WhiteSpaceModel::deserialize(model.serialize());
    expect_same_predictions(model, bin_back, "svm comma-locale binary");
  }
}

}  // namespace
}  // namespace waldo::core
