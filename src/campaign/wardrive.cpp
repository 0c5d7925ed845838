#include "waldo/campaign/wardrive.hpp"

#include "waldo/dsp/detectors.hpp"
#include "waldo/runtime/parallel.hpp"
#include "waldo/runtime/seed.hpp"
#include "waldo/runtime/stage_timer.hpp"

namespace waldo::campaign {

ChannelDataset collect_channel(const rf::Environment& environment,
                               sensors::Sensor& sensor, int channel,
                               std::span<const geo::EnuPoint> route,
                               const CollectOptions& options) {
  const auto timing = runtime::StageTimer::global().scope(
      "campaign.collect_channel", route.size());

  ChannelDataset ds;
  ds.channel = channel;
  ds.sensor_name = sensor.spec().name;
  ds.readings.resize(route.size());

  // Readings are independent: each derives its sensing noise from the
  // stream (channel, route index), so the sweep is a pure function of the
  // sensor's unit seed and the route — whatever the thread count.
  const auto channel_stream =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(channel));
  // One workspace per lane: a lane is owned by a single executor for the
  // whole loop, so its scratch buffers are reused allocation-free across
  // every reading that lane processes (docs/CONCURRENCY.md).
  std::vector<dsp::CaptureWorkspace> workspaces(
      runtime::parallel_lane_count(route.size(), options.threads));
  runtime::parallel_for_lanes(
      route.size(), options.threads, [&](std::size_t lane, std::size_t i) {
        dsp::CaptureWorkspace& ws = workspaces[lane];
        const geo::EnuPoint& p = route[i];
        const double truth = environment.true_rss_dbm(channel, p);
        const double raw = sensor.sense_channel_into(
            truth, runtime::split_seed(channel_stream, i), ws);
        const auto ps = dsp::power_spectrum_shifted_into(ws.time, ws);

        Measurement& m = ds.readings[i];
        m.position = p;
        m.raw = raw;
        m.rss_dbm = sensor.calibrated_rss_dbm(raw);
        m.cft_db = dsp::central_bin_db_from_power(ps);
        m.aft_db = dsp::central_band_mean_db_from_power(ps);
        m.true_rss_dbm = truth;
      });
  return ds;
}

geo::DrivePath standard_route(const rf::Environment& environment,
                              std::size_t num_readings, std::uint64_t seed) {
  const geo::BoundingBox& region = environment.config().region;
  geo::DrivePathConfig cfg;
  cfg.region_side_m = std::min(region.width_m(), region.height_m());
  cfg.num_readings = num_readings;
  cfg.seed = seed;
  geo::DrivePath path = geo::generate_drive_path(cfg);
  // The generator works in [0, side]^2; shift onto the region origin.
  for (geo::EnuPoint& p : path.readings) {
    p.east_m += region.min_east_m;
    p.north_m += region.min_north_m;
  }
  return path;
}

}  // namespace waldo::campaign
