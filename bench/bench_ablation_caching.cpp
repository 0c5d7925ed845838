// Caching ablation (Section 5): the paper notes Waldo's 30-channel scan
// exceeds IEEE 802.22's 2 s sensing budget, but channels whose model is an
// area-wide constant need not be scanned at all. This bench measures the
// 30-channel cycle with and without constant-channel caching, on the
// realistic market mix where most TV channels are either blanket-occupied
// downtown or completely dark.
#include <cstdio>
#include <random>

#include "common.hpp"
#include "waldo/device/phone.hpp"
#include "waldo/ml/stats.hpp"
#include "waldo/service/service.hpp"

using namespace waldo;

namespace {

double mean_cycle_s(device::PhoneRuntime& phone,
                    const rf::Environment& environment,
                    std::span<const int> scan_list) {
  std::mt19937_64 rng(81);
  std::uniform_real_distribution<double> coord(2000.0, 24'000.0);
  std::vector<double> times;
  for (int i = 0; i < 15; ++i) {
    const geo::EnuPoint p{coord(rng), coord(rng)};
    times.push_back(phone.scan_cycle(environment, scan_list, p).busy_time_s);
  }
  return ml::summarize(times).mean;
}

}  // namespace

int main() {
  std::printf("Caching ablation — 30-channel scan cycle vs the IEEE "
              "802.22 2 s budget\n");
  bench::Campaign campaign(2000);

  core::ModelConstructorConfig mc;
  mc.classifier = "naive_bayes";
  mc.num_features = 2;
  mc.num_localities = 3;
  service::SpectrumService db(mc);
  // The real 30-channel market: the 9 modelled stations plus 21 channels
  // that are simply dark in this metro (no transmitter -> every campaign
  // reading at the device floor -> an area-wide constant-safe model).
  std::vector<int> scan_list;
  sensors::Sensor campaign_sensor(sensors::usrp_b200_spec(), 85);
  campaign_sensor.calibrate();
  for (int ch = 14; ch <= 43; ++ch) {
    scan_list.push_back(ch);
    bool modelled = false;
    for (const int known : rf::kPaperChannels) modelled |= known == ch;
    if (modelled) {
      db.ingest_campaign(campaign.dataset(bench::SensorKind::kUsrpB200, ch));
    } else {
      db.ingest_campaign(campaign::collect_channel(
          campaign.environment(), campaign_sensor, ch,
          campaign.route().readings));
    }
  }

  bench::print_title("mean 30-channel cycle time");
  bench::print_row({"config", "cycle_s", "meets 2 s budget"}, 24);
  std::size_t constant_channels = 0;
  for (const int ch : scan_list) {
    constant_channels += db.model(ch)->constant_label().has_value() ? 1 : 0;
  }
  for (const bool caching : {false, true}) {
    device::PhoneConfig cfg;
    cfg.cache_constant_channels = caching;
    sensors::Sensor sensor(device::phone_rtl_sdr_spec(),
                           90 + (caching ? 1 : 0));
    sensor.calibrate();
    device::PhoneRuntime phone(cfg, std::move(sensor));
    phone.ensure_models(db, scan_list);
    const double cycle = mean_cycle_s(phone, campaign.environment(),
                                      scan_list);
    bench::print_row({caching ? "constant-channel cache" : "scan everything",
                      bench::fmt(cycle, 2), cycle <= 2.0 ? "yes" : "no"},
                     24);
  }
  std::printf("\n%zu of 30 market channels have area-wide constant models"
              " and are cacheable;\nthe paper's 5.89 s / 2 s violation"
              " disappears once they are skipped.\n",
              constant_channels);
  return 0;
}
