#include "waldo/device/phone.hpp"

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "waldo/core/features.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/ml/stats.hpp"

namespace waldo::device {

namespace {

/// Acquisition latency per reading: retune + 256-sample USB-OTG transfer
/// on an RTL dongle (dominated by USB turnaround, ~10 ms class).
constexpr double kReadingPeriodS = 0.012;

}  // namespace

sensors::SensorSpec phone_rtl_sdr_spec() {
  sensors::SensorSpec spec = sensors::rtl_sdr_spec();
  spec.name = "RTL-SDR (phone)";
  // USB-OTG power noise and the lack of a fixed mount roughly triple the
  // reading jitter relative to the bench setup.
  spec.gain_jitter_db = 0.5;
  return spec;
}

PhoneRuntime::PhoneRuntime(PhoneConfig config, sensors::Sensor sensor)
    : config_(config), sensor_(std::move(sensor)) {
  if (!sensor_.calibration().has_value()) {
    throw std::invalid_argument("phone sensor must be calibrated");
  }
}

void PhoneRuntime::install_model(core::WhiteSpaceModel model) {
  const int channel = model.channel();
  models_.insert_or_assign(channel, std::move(model));
}

bool PhoneRuntime::has_model(int channel) const noexcept {
  return models_.contains(channel);
}

std::size_t PhoneRuntime::ensure_models(service::SpectrumService& store,
                                        std::span<const int> channels) {
  std::size_t bytes = 0;
  for (const int ch : channels) {
    if (has_model(ch)) continue;
    const std::string descriptor = store.download_model(ch);
    bytes += descriptor.size();
    install_model(core::WhiteSpaceModel::deserialize(descriptor));
  }
  bytes_downloaded_ += bytes;
  return bytes;
}

ChannelScan PhoneRuntime::run_scan(const rf::Environment& environment,
                                   int channel, geo::EnuPoint position,
                                   double step_east_m, double step_north_m) {
  const auto model_it = models_.find(channel);
  if (model_it == models_.end()) {
    throw std::logic_error("no model installed for channel " +
                           std::to_string(channel));
  }
  const core::WhiteSpaceModel& model = model_it->second;

  ChannelScan scan;
  scan.channel = channel;

  if (config_.cache_constant_channels) {
    if (const std::optional<int> constant = model.constant_label()) {
      scan.cached = true;
      scan.converged = true;
      scan.decision = *constant;
      return scan;
    }
  }

  core::ConvergenceFilter filter(config_.detector);

  std::vector<double> cft_values, aft_values;
  using clock = std::chrono::steady_clock;
  double processing_s = 0.0;

  while (!filter.converged() && !filter.exhausted()) {
    const double truth = environment.true_rss_dbm(channel, position);
    sensors::SensorReading reading = sensor_.sense_channel(truth);
    scan.acquisition_time_s += kReadingPeriodS;

    const auto t0 = clock::now();
    const double rss = sensor_.calibrated_rss_dbm(reading.raw);
    const core::SpectralFeatures spectral =
        core::extract_spectral_features(reading.iq);
    cft_values.push_back(spectral.cft_db);
    aft_values.push_back(spectral.aft_db);
    filter.ingest(rss);
    processing_s += std::chrono::duration<double>(clock::now() - t0).count();

    position.east_m += step_east_m;
    position.north_m += step_north_m;
  }

  scan.converged = filter.converged();
  scan.readings_used = filter.samples_seen();

  const auto t0 = clock::now();
  const double rss_estimate = filter.estimate_dbm();
  const double cft = ml::summarize(cft_values).mean;
  const double aft = ml::summarize(aft_values).mean;
  const std::vector<double> row = core::feature_row(
      position, rss_estimate, cft, aft, model.num_features());
  scan.decision = model.predict(row);
  processing_s += std::chrono::duration<double>(clock::now() - t0).count();
  scan.processing_time_s = processing_s * config_.processing_time_scale;

  // A non-converged (mobile) scan defaults to the conservative decision.
  if (!scan.converged) scan.decision = ml::kNotSafe;
  return scan;
}

ChannelScan PhoneRuntime::scan_channel(const rf::Environment& environment,
                                       int channel,
                                       const geo::EnuPoint& position) {
  return run_scan(environment, channel, position, 0.0, 0.0);
}

ChannelScan PhoneRuntime::scan_channel_mobile(
    const rf::Environment& environment, int channel,
    const geo::EnuPoint& start, double speed_east_mps,
    double speed_north_mps) {
  return run_scan(environment, channel, start,
                  speed_east_mps * kReadingPeriodS,
                  speed_north_mps * kReadingPeriodS);
}

ScanReport PhoneRuntime::scan_cycle(const rf::Environment& environment,
                                    std::span<const int> channels,
                                    const geo::EnuPoint& position) {
  ScanReport report;
  report.channels.reserve(channels.size());
  for (const int ch : channels) {
    ChannelScan scan = scan_channel(environment, ch, position);
    report.busy_time_s += scan.convergence_time_s();
    report.processing_time_s += scan.processing_time_s;
    report.channels.push_back(std::move(scan));
  }
  return report;
}

}  // namespace waldo::device
