// Mobile white-space-device example (the paper's Section 5 scenario): a
// phone with an RTL-SDR dongle bootstraps its models from the central
// database once, then drives through town re-scanning every "minute",
// printing the channel decisions, convergence times and data budget as it
// goes. A final stop uploads its measurements back to the database.
#include <cstdio>

#include "waldo/campaign/wardrive.hpp"
#include "waldo/device/phone.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/rf/environment.hpp"
#include "waldo/service/service.hpp"

int main() {
  using namespace waldo;
  const rf::Environment world = rf::make_metro_environment();

  // Bootstrap the central database from a trusted campaign.
  std::printf("bootstrapping the central spectrum database...\n");
  const geo::DrivePath route = campaign::standard_route(world, 3000);
  core::ModelConstructorConfig constructor;
  constructor.classifier = "svm";
  constructor.num_features = 3;
  constructor.num_localities = 3;
  constructor.max_train_samples = 600;
  service::SpectrumService database(constructor);
  sensors::Sensor campaign_sensor(sensors::usrp_b200_spec(), 21);
  campaign_sensor.calibrate();
  const std::vector<int> channels{15, 21, 22, 46};
  for (const int ch : channels) {
    database.ingest_campaign(
        campaign::collect_channel(world, campaign_sensor, ch,
                                  route.readings));
  }

  // The phone joins the network: one model download per channel.
  sensors::Sensor dongle(device::phone_rtl_sdr_spec(), 22);
  dongle.calibrate();
  device::PhoneRuntime phone(device::PhoneConfig{}, std::move(dongle));
  const std::size_t bytes = phone.ensure_models(database, channels);
  std::printf("downloaded %zu bytes of models for %zu channels "
              "(vs ~2 kB per single-location query to a classic database)\n",
              bytes, channels.size());

  // Drive across town, scanning at each stop.
  const geo::EnuPoint stops[] = {{3000.0, 3000.0},
                                 {8000.0, 13'000.0},
                                 {13'000.0, 13'000.0},
                                 {20'000.0, 18'000.0},
                                 {24'000.0, 24'000.0}};
  for (const geo::EnuPoint& stop : stops) {
    std::printf("\n@ (%5.0f, %5.0f) m:\n", stop.east_m, stop.north_m);
    const device::ScanReport report =
        phone.scan_cycle(world, channels, stop);
    for (const device::ChannelScan& scan : report.channels) {
      std::printf("  ch %2d: %-9s (%2zu readings, %.0f ms%s)\n",
                  scan.channel,
                  scan.decision == ml::kSafe ? "SAFE" : "NOT SAFE",
                  scan.readings_used, scan.convergence_time_s() * 1000.0,
                  scan.converged ? "" : ", no convergence -> conservative");
    }
    std::printf("  cycle: %.2f s busy, %.2f%% CPU over the 60 s period\n",
                report.busy_time_s,
                report.cpu_duty_fraction(60.0) * 100.0);
  }

  // Give back: upload the readings used at the last stop.
  std::vector<campaign::Measurement> uploads;
  sensors::Sensor upload_sensor(device::phone_rtl_sdr_spec(), 23);
  upload_sensor.calibrate();
  for (int i = 0; i < 20; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{24'000.0 + 30.0 * i, 24'000.0};
    const auto reading =
        upload_sensor.sense_channel(world.true_rss_dbm(46, m.position));
    m.raw = reading.raw;
    m.rss_dbm = upload_sensor.calibrated_rss_dbm(reading.raw);
    uploads.push_back(m);
  }
  const auto result = database.upload_measurements(46, uploads, "anonymous");
  std::printf("\nglobal model updater: %zu readings accepted, %zu rejected "
              "by the correlation check\n",
              result.accepted, result.rejected);
  return 0;
}
