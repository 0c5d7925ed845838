// Quickstart: the whole Waldo loop in one file.
//
//   1. Simulate a metro RF environment (stand-in for the real world).
//   2. War-drive it with a calibrated low-cost sensor.
//   3. Let the central spectrum database label the data (Algorithm 1) and
//      construct a per-locality detection model.
//   4. Download the model to a device and decide, locally, whether a TV
//      channel is safe to use at a few places.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "waldo/campaign/wardrive.hpp"
#include "waldo/core/features.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/sensors/sensor.hpp"
#include "waldo/service/service.hpp"

int main() {
  using namespace waldo;

  // 1. The world: TV transmitters + shadowing + obstruction pockets over a
  //    700 km^2 metro region.
  const rf::Environment world = rf::make_metro_environment();
  constexpr int kChannel = 46;
  std::printf("world: %zu transmitters, channel %d under test\n",
              world.transmitters().size(), kChannel);

  // 2. A $15-class sensor, calibrated against a signal generator, driven
  //    along ~800 km of city streets.
  sensors::Sensor dongle(sensors::rtl_sdr_spec(), /*seed=*/1);
  const sensors::LinearCalibration cal = dongle.calibrate();
  std::printf("calibration: dBm = %.3f * raw + %.2f\n", cal.slope,
              cal.intercept);
  const geo::DrivePath route = campaign::standard_route(world, 3000);
  campaign::ChannelDataset sweep =
      campaign::collect_channel(world, dongle, kChannel, route.readings);
  std::printf("campaign: %zu readings over %.0f km of driving\n",
              sweep.size(), route.total_length_m / 1000.0);

  // 3. The central database ingests the sweep, labels it per the FCC
  //    protection rule and builds a compact 3-locality SVM model.
  core::ModelConstructorConfig constructor;
  constructor.classifier = "svm";
  constructor.num_features = 3;  // location + RSS + CFT
  constructor.num_localities = 3;
  constructor.max_train_samples = 800;
  service::SpectrumService database(constructor);
  database.ingest_campaign(std::move(sweep));
  const std::string descriptor = database.download_model(kChannel);
  std::printf("model descriptor: %zu bytes for the whole area\n",
              descriptor.size());

  // 4. A device deserializes the model and decides locally.
  const core::WhiteSpaceModel model =
      core::WhiteSpaceModel::deserialize(descriptor);
  sensors::Sensor device_dongle(sensors::rtl_sdr_spec(), /*seed=*/2);
  device_dongle.calibrate();

  std::printf("\n%-28s %-10s %-12s %s\n", "location", "RSS dBm", "decision",
              "(ground truth)");
  for (const geo::EnuPoint p :
       {geo::EnuPoint{4000.0, 4000.0}, geo::EnuPoint{13'000.0, 13'000.0},
        geo::EnuPoint{13'000.0, 24'000.0}, geo::EnuPoint{23'000.0, 3000.0}}) {
    const sensors::SensorReading reading =
        device_dongle.sense_channel(world.true_rss_dbm(kChannel, p));
    const double rss = device_dongle.calibrated_rss_dbm(reading.raw);
    const core::SpectralFeatures spectral =
        core::extract_spectral_features(reading.iq);
    const auto row = core::feature_row(p, rss, spectral.cft_db,
                                       spectral.aft_db, 3);
    const int decision = model.predict(row);
    std::printf("(%6.0f m, %6.0f m) east/north %-10.1f %-12s (decodable "
                "here: %s)\n",
                p.east_m, p.north_m, rss,
                decision == ml::kSafe ? "SAFE" : "NOT SAFE",
                world.signal_decodable(kChannel, p) ? "yes" : "no");
  }
  return 0;
}
