// Figure 17 + Section 5 responsiveness: CDF of the time the on-device
// detector needs to build a 90 % confidence interval with a 0.5 dB span
// (stationary), the insensitivity of that time to alpha between 0.5 and
// 5 dB, the 30-channel scan total vs IEEE 802.22's 2 s budget, and the
// mobile case where convergence often fails.
#include <cstdio>
#include <random>

#include "common.hpp"
#include "waldo/device/phone.hpp"
#include "waldo/ml/stats.hpp"
#include "waldo/service/service.hpp"

using namespace waldo;

int main() {
  std::printf("Figure 17 — detector convergence time\n");
  bench::Campaign campaign(1200);

  core::ModelConstructorConfig mc;
  mc.classifier = "naive_bayes";
  mc.num_features = 2;
  service::SpectrumService db(mc);
  db.ingest_campaign(campaign.dataset(bench::SensorKind::kUsrpB200, 46));

  std::mt19937_64 rng(61);
  std::uniform_real_distribution<double> coord(1000.0, 25'000.0);

  // Stationary convergence, alpha sweep.
  bench::print_title("stationary convergence vs alpha (100 scans each)");
  bench::print_row({"alpha_dB", "mean_s", "p50_s", "p95_s", "converged"});
  std::vector<double> times_alpha05;
  for (const double alpha : {0.5, 1.0, 2.0, 5.0}) {
    device::PhoneConfig cfg;
    cfg.cache_constant_channels = false;  // paper protocol: scan everything
    cfg.detector.alpha_db = alpha;
    sensors::Sensor sensor(device::phone_rtl_sdr_spec(), 62);
    sensor.calibrate();
    device::PhoneRuntime phone(cfg, std::move(sensor));
    phone.ensure_models(db, std::vector<int>{46});
    std::vector<double> times;
    int converged = 0;
    for (int i = 0; i < 100; ++i) {
      const geo::EnuPoint p{coord(rng), coord(rng)};
      const device::ChannelScan scan =
          phone.scan_channel(campaign.environment(), 46, p);
      times.push_back(scan.convergence_time_s());
      converged += scan.converged ? 1 : 0;
    }
    if (alpha == 0.5) times_alpha05 = times;
    bench::print_row({bench::fmt(alpha, 1),
                      bench::fmt(ml::summarize(times).mean),
                      bench::fmt(ml::quantile(times, 0.5)),
                      bench::fmt(ml::quantile(times, 0.95)),
                      std::to_string(converged) + "/100"});
  }

  bench::print_title("CDF of stationary convergence time (alpha = 0.5 dB)");
  bench::print_row({"probability", "seconds"});
  for (const auto& p : ml::empirical_cdf(times_alpha05, 10)) {
    bench::print_row({bench::fmt(p.probability, 2), bench::fmt(p.value)});
  }
  const double mean_time = ml::summarize(times_alpha05).mean;
  std::printf("mean %.3f s (paper: 0.19 s); 30 channels => %.2f s vs IEEE "
              "802.22's 2 s budget\n",
              mean_time, 30.0 * mean_time);

  // Mobile scans.
  bench::print_title("mobile scans (25 m/s, tight alpha)");
  device::PhoneConfig mobile_cfg;
  mobile_cfg.cache_constant_channels = false;
  mobile_cfg.detector.alpha_db = 0.2;
  mobile_cfg.detector.max_samples = 60;
  sensors::Sensor mobile_sensor(device::phone_rtl_sdr_spec(), 63);
  mobile_sensor.calibrate();
  device::PhoneRuntime mobile(mobile_cfg, std::move(mobile_sensor));
  mobile.ensure_models(db, std::vector<int>{46});
  std::vector<double> mobile_times;
  int failures = 0;
  for (int i = 0; i < 60; ++i) {
    const device::ChannelScan scan = mobile.scan_channel_mobile(
        campaign.environment(), 46, geo::EnuPoint{coord(rng), coord(rng)},
        25.0, 0.0);
    if (scan.converged) {
      mobile_times.push_back(scan.convergence_time_s());
    } else {
      ++failures;
    }
  }
  std::printf("non-convergence: %d/60 scans", failures);
  if (!mobile_times.empty()) {
    std::printf("; min converged time %.3f s",
                ml::summarize(mobile_times).min);
  }
  std::printf("\nPaper shape: stationary convergence is fast (~0.2 s) and "
              "insensitive to alpha;\nmobility inflates delay and often "
              "prevents convergence (conservative fallback).\n");
  return 0;
}
