// Microbenchmarks (google-benchmark) of the on-device pipeline stages, the
// offline model-construction stages and server-side upload screening, plus
// the pilot-vs-energy detector ablation called out in DESIGN.md.
//
// Accepts `--json <path>` (in addition to the standard --benchmark_* flags)
// to also write the measured ns/item rates as machine-readable JSON — the
// format archived in BENCH_micro_pipeline.json and uploaded by CI.
#include <benchmark/benchmark.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "waldo/campaign/labeling.hpp"
#include "waldo/core/channel_state.hpp"
#include "waldo/core/detector.hpp"
#include "waldo/core/features.hpp"
#include "waldo/dsp/detectors.hpp"
#include "waldo/dsp/fft.hpp"
#include "waldo/dsp/iq.hpp"
#include "waldo/ml/kmeans.hpp"
#include "waldo/ml/metrics.hpp"
#include "waldo/ml/naive_bayes.hpp"
#include "waldo/ml/stats.hpp"
#include "waldo/ml/svm.hpp"
#include "waldo/sensors/sensor.hpp"

namespace {

using namespace waldo;

std::vector<dsp::cplx> test_capture() {
  std::mt19937_64 rng(1);
  return dsp::synthesize_capture(dsp::CaptureConfig{}, -70.0, -95.0, rng);
}

void BM_Fft256(benchmark::State& state) {
  std::vector<dsp::cplx> capture = test_capture();
  for (auto _ : state) {
    std::vector<dsp::cplx> copy = capture;
    dsp::fft_inplace(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Fft256);

void BM_SynthesizeCapture(benchmark::State& state) {
  std::mt19937_64 rng(2);
  const dsp::CaptureConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dsp::synthesize_capture(cfg, -70.0, -95.0, rng).data());
  }
}
BENCHMARK(BM_SynthesizeCapture);

void BM_EnergyDetector(benchmark::State& state) {
  const std::vector<dsp::cplx> capture = test_capture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::energy_detector_dbm(capture));
  }
}
BENCHMARK(BM_EnergyDetector);

void BM_PilotDetector(benchmark::State& state) {
  const std::vector<dsp::cplx> capture = test_capture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dsp::pilot_detector_dbm(capture));
  }
}
BENCHMARK(BM_PilotDetector);

void BM_FeatureExtraction(benchmark::State& state) {
  const std::vector<dsp::cplx> capture = test_capture();
  for (auto _ : state) {
    const core::SpectralFeatures f = core::extract_spectral_features(capture);
    benchmark::DoNotOptimize(f.cft_db + f.aft_db);
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_SensorSenseChannel(benchmark::State& state) {
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rtl.sense_channel(-75.0).iq.data());
  }
}
BENCHMARK(BM_SensorSenseChannel);

// The full per-reading hot path (capture synthesis -> CFT/AFT features) in
// its three forms. Legacy allocates per reading and transforms the capture
// once per feature; Workspace reuses lane-owned scratch and computes one
// shared power spectrum; FastSpectral additionally skips the ifft -> fft
// round trip. The committed baseline in BENCH_micro_pipeline.json records
// the pre-plan-cache numbers these are compared against.
void BM_CaptureToFeature_Legacy(benchmark::State& state) {
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 3);
  std::uint64_t stream = 0;
  for (auto _ : state) {
    const sensors::SensorReading r = rtl.sense_channel(-75.0, stream++);
    const core::SpectralFeatures f = core::extract_spectral_features(r.iq);
    benchmark::DoNotOptimize(r.raw + f.cft_db + f.aft_db);
  }
}
BENCHMARK(BM_CaptureToFeature_Legacy);

void BM_CaptureToFeature_Workspace(benchmark::State& state) {
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 3);
  dsp::CaptureWorkspace ws;
  std::uint64_t stream = 0;
  for (auto _ : state) {
    const double raw = rtl.sense_channel_into(-75.0, stream++, ws);
    const core::SpectralFeatures f =
        core::extract_spectral_features(ws.time, ws);
    benchmark::DoNotOptimize(raw + f.cft_db + f.aft_db);
  }
}
BENCHMARK(BM_CaptureToFeature_Workspace);

void BM_CaptureToFeature_FastSpectral(benchmark::State& state) {
  sensors::Sensor rtl(sensors::rtl_sdr_spec(), 3);
  dsp::CaptureWorkspace ws;
  std::uint64_t stream = 0;
  for (auto _ : state) {
    const double raw =
        rtl.sense_channel_into(-75.0, stream++, ws, /*spectrum_only=*/true);
    const core::SpectralFeatures f =
        core::spectral_features_from_spectrum(ws.shifted);
    benchmark::DoNotOptimize(raw + f.cft_db + f.aft_db);
  }
}
BENCHMARK(BM_CaptureToFeature_FastSpectral);

void make_training(std::size_t n, ml::Matrix& x, std::vector<int>& y) {
  std::mt19937_64 rng(4);
  std::normal_distribution<double> g(0.0, 1.0);
  x = ml::Matrix(n, 4);
  y.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const bool safe = i % 2 == 0;
    for (std::size_t c = 0; c < 4; ++c) {
      x(i, c) = g(rng) + (safe ? 1.0 : -1.0);
    }
    y[i] = safe ? ml::kSafe : ml::kNotSafe;
  }
}

void BM_SvmTrain(benchmark::State& state) {
  ml::Matrix x;
  std::vector<int> y;
  make_training(static_cast<std::size_t>(state.range(0)), x, y);
  for (auto _ : state) {
    ml::Svm svm;
    svm.fit(x, y);
    benchmark::DoNotOptimize(svm.num_support_vectors());
  }
}
BENCHMARK(BM_SvmTrain)->Arg(200)->Arg(600);

void BM_SvmPredict(benchmark::State& state) {
  ml::Matrix x;
  std::vector<int> y;
  make_training(600, x, y);
  ml::Svm svm;
  svm.fit(x, y);
  const std::vector<double> probe{0.1, -0.2, 0.3, 0.4};
  for (auto _ : state) benchmark::DoNotOptimize(svm.predict(probe));
}
BENCHMARK(BM_SvmPredict);

void BM_NaiveBayesTrain(benchmark::State& state) {
  ml::Matrix x;
  std::vector<int> y;
  make_training(2000, x, y);
  for (auto _ : state) {
    ml::GaussianNaiveBayes nb;
    nb.fit(x, y);
    benchmark::DoNotOptimize(&nb);
  }
}
BENCHMARK(BM_NaiveBayesTrain);

void BM_NaiveBayesPredict(benchmark::State& state) {
  ml::Matrix x;
  std::vector<int> y;
  make_training(2000, x, y);
  ml::GaussianNaiveBayes nb;
  nb.fit(x, y);
  const std::vector<double> probe{0.1, -0.2, 0.3, 0.4};
  for (auto _ : state) benchmark::DoNotOptimize(nb.predict(probe));
}
BENCHMARK(BM_NaiveBayesPredict);

void BM_Algorithm1Labeling(benchmark::State& state) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> coord(0.0, 26'500.0);
  std::uniform_real_distribution<double> power(-110.0, -70.0);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<geo::EnuPoint> pos(n);
  std::vector<double> rss(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = geo::EnuPoint{coord(rng), coord(rng)};
    rss[i] = power(rng);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(campaign::label_readings(pos, rss).data());
  }
}
BENCHMARK(BM_Algorithm1Labeling)->Arg(1000)->Arg(5282);

void BM_KMeansLocalities(benchmark::State& state) {
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<double> coord(0.0, 26'500.0);
  ml::Matrix x(5282, 2);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = coord(rng);
    x(i, 1) = coord(rng);
  }
  ml::KMeansConfig cfg;
  cfg.k = 3;
  cfg.threads = static_cast<unsigned>(state.range(0));  // 0 = all hardware
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(x, cfg).inertia);
  }
}
BENCHMARK(BM_KMeansLocalities)->Arg(1)->Arg(0);

void BM_ConvergenceFilter(benchmark::State& state) {
  std::mt19937_64 rng(7);
  std::normal_distribution<double> noise(-85.0, 0.5);
  for (auto _ : state) {
    core::ConvergenceFilter filter;
    while (!filter.ingest(noise(rng))) {
    }
    benchmark::DoNotOptimize(filter.estimate_dbm());
  }
}
BENCHMARK(BM_ConvergenceFilter);

void BM_Quantile(benchmark::State& state) {
  std::mt19937_64 rng(8);
  std::normal_distribution<double> power(-85.0, 8.0);
  std::vector<double> v(static_cast<std::size_t>(state.range(0)));
  for (double& x : v) x = power(rng);
  for (auto _ : state) benchmark::DoNotOptimize(ml::quantile(v, 0.5));
}
BENCHMARK(BM_Quantile)->Arg(220);

/// Crowd batches shaped like the serving benchmark's: three readings each,
/// 80% honest (a stored reading moved up to 40 m), 10% poisoned (+20 dB),
/// 10% out of coverage on a 1,050 m lattice far outside the sweep, every
/// lattice point used once, so those readings stay parked.
class CrowdBatches {
 public:
  explicit CrowdBatches(const campaign::ChannelDataset& sweep)
      : sweep_(&sweep) {}

  std::vector<campaign::Measurement> next(std::mt19937_64& rng) {
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<double> jitter(-40.0, 40.0);
    std::uniform_int_distribution<std::size_t> pick(
        0, sweep_->readings.size() - 1);
    std::vector<campaign::Measurement> batch;
    for (int r = 0; r < 3; ++r) {
      campaign::Measurement m = sweep_->readings[pick(rng)];
      const double kind = unit(rng);
      if (kind < 0.9) {
        m.position.east_m += jitter(rng);
        m.position.north_m += jitter(rng);
        if (kind >= 0.8) m.rss_dbm += 20.0;
      } else {
        const std::uint64_t cell = far_cells_++;
        m.position.east_m = 50'000.0 + 1'050.0 * static_cast<double>(cell % 90);
        m.position.north_m = 1'050.0 * static_cast<double>(cell / 90);
      }
      batch.push_back(std::move(m));
    }
    return batch;
  }

 private:
  const campaign::ChannelDataset* sweep_;
  std::uint64_t far_cells_ = 0;
};

/// Screening on a channel that has been serving for a while: a sweep of
/// 5,282 readings over an 18 km square grown by 8,000 crowd batches to
/// about 24k trusted and 2.5k parked readings (neighbourhoods of about
/// 220). One iteration applies the next 1,000 batches to a fresh copy of
/// that channel; the copy is made outside the timed region.
void BM_ScreenGrownChannel(benchmark::State& state) {
  std::mt19937_64 rng(9);
  std::uniform_real_distribution<double> coord(-9'000.0, 9'000.0);
  std::normal_distribution<double> noise(0.0, 3.0);
  campaign::ChannelDataset sweep{.channel = 30, .sensor_name = "usrp",
                                 .readings = {}};
  for (int i = 0; i < 5282; ++i) {
    campaign::Measurement m;
    m.position = geo::EnuPoint{coord(rng), coord(rng)};
    m.true_rss_dbm = -80.0 - 0.001 * m.position.east_m +
                     5.0 * std::sin(m.position.north_m / 1'500.0);
    m.rss_dbm = m.true_rss_dbm + noise(rng);
    sweep.readings.push_back(m);
  }
  const core::UploadPolicy policy;
  CrowdBatches crowd(sweep);
  core::ChannelState grown(sweep);
  for (int b = 0; b < 8000; ++b) {
    const auto batch = crowd.next(rng);
    (void)grown.upload(policy, batch, "dev" + std::to_string(rng() % 256));
  }
  std::vector<std::vector<campaign::Measurement>> batches;
  std::vector<std::string> contributors;
  for (int b = 0; b < 1000; ++b) {
    batches.push_back(crowd.next(rng));
    contributors.push_back("dev" + std::to_string(rng() % 256));
  }
  for (auto _ : state) {
    state.PauseTiming();
    core::ChannelState channel = grown;
    state.ResumeTiming();
    for (std::size_t b = 0; b < batches.size(); ++b) {
      benchmark::DoNotOptimize(
          channel.upload(policy, batches[b], contributors[b]).ledger.accepted);
    }
    state.PauseTiming();
    channel = {};  // freed outside the timed region too
    state.ResumeTiming();
  }
  state.counters["trusted"] = static_cast<double>(grown.dataset().readings.size());
  state.counters["parked"] = static_cast<double>(grown.pending().size());
}
BENCHMARK(BM_ScreenGrownChannel);

/// Console output as usual, plus every finished run captured for --json.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::JsonReport* out) : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (!run.error_occurred) {
        out_->add_rate(run.benchmark_name(), run.GetAdjustedRealTime());
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::JsonReport* out_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::JsonReport report;
  CapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (!json_path.empty() &&
      !report.write(json_path, "bench_micro_pipeline")) {
    return 1;
  }
  return 0;
}
