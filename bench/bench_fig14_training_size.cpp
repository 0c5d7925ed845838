// Figure 14: effect of incrementally growing the training dataset. (a)/(b)
// error vs training fraction on channels 15 and 30 (location + two signal
// features, k = 5 localities, both sensors, both models); (c) the error CDF
// over all channels and classification configurations for 25/50/75/100 %
// of the training pool.
#include <chrono>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "waldo/ml/stats.hpp"
#include "waldo/runtime/thread_pool.hpp"

using namespace waldo;

namespace {

/// Trains a k=5 Waldo model on `fraction` of the pool, tests on a fixed
/// 10 % holdout (paper protocol). `threads` feeds the ModelConstructor
/// fan-out (0 = all hardware threads); the confusion matrix is identical
/// at every thread count.
ml::ConfusionMatrix eval_fraction(bench::Campaign& campaign,
                                  bench::SensorKind sensor, int channel,
                                  const char* model, int num_features,
                                  double fraction, std::uint64_t seed,
                                  unsigned threads = 0) {
  const campaign::ChannelDataset& ds = campaign.dataset(sensor, channel);
  const std::vector<int>& labels = campaign.labels(sensor, channel);

  std::vector<std::size_t> perm(ds.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);

  const std::size_t test_n = ds.size() / 10;
  core::ModelConstructorConfig mc;
  mc.classifier = model;
  mc.num_features = num_features;
  mc.num_localities = 5;
  mc.max_train_samples = 600;
  mc.threads = threads;

  campaign::ChannelDataset train;
  train.channel = ds.channel;
  std::vector<int> train_labels;
  const auto pool_n = static_cast<std::size_t>(
      fraction * static_cast<double>(ds.size() - test_n));
  for (std::size_t i = test_n; i < test_n + pool_n; ++i) {
    train.readings.push_back(ds.readings[perm[i]]);
    train_labels.push_back(labels[perm[i]]);
  }
  const core::WhiteSpaceModel model_built =
      core::ModelConstructor(mc).build(train, train_labels);

  ml::ConfusionMatrix cm;
  for (std::size_t i = 0; i < test_n; ++i) {
    const campaign::Measurement& m = ds.readings[perm[i]];
    const auto row = core::feature_row(m.position, m.rss_dbm, m.cft_db,
                                       m.aft_db, num_features);
    cm.add(model_built.predict(row), labels[perm[i]]);
  }
  return cm;
}

}  // namespace

int main() {
  std::printf("Figure 14 — incremental growth of the training dataset\n");
  bench::Campaign campaign;

  for (const int ch : {15, 30}) {
    bench::print_title("(" + std::string(ch == 15 ? "a" : "b") +
                       ") channel " + std::to_string(ch) +
                       " error vs training fraction (k=5, loc + RSS + CFT)");
    bench::print_row({"fraction", "RTL NB", "RTL SVM", "USRP NB",
                      "USRP SVM"},
                     12);
    for (int step = 1; step <= 9; ++step) {
      const double fraction = static_cast<double>(step) / 9.0;
      std::vector<std::string> row{bench::fmt(fraction, 2)};
      for (const bench::SensorKind sensor :
           {bench::SensorKind::kRtlSdr, bench::SensorKind::kUsrpB200}) {
        for (const char* model : {"naive_bayes", "svm"}) {
          row.push_back(bench::fmt(
              eval_fraction(campaign, sensor, ch, model, 3, fraction, 7)
                  .error_rate()));
        }
      }
      bench::print_row(row, 12);
    }
  }

  bench::print_title("(c) error CDF over all channels x sensors x features");
  std::map<int, std::vector<double>> errors;  // percent -> error samples
  for (const int percent : {25, 50, 75, 100}) {
    for (const int ch : rf::kEvaluationChannels) {
      for (const bench::SensorKind sensor :
           {bench::SensorKind::kRtlSdr, bench::SensorKind::kUsrpB200}) {
        for (int nf = 1; nf <= 4; ++nf) {
          errors[percent].push_back(
              eval_fraction(campaign, sensor, ch, "naive_bayes", nf,
                            percent / 100.0, 11)
                  .error_rate());
        }
      }
    }
  }
  bench::print_row({"probability", "25%", "50%", "75%", "100%"}, 12);
  for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    std::vector<std::string> row{bench::fmt(q, 2)};
    for (const int percent : {25, 50, 75, 100}) {
      row.push_back(bench::fmt(ml::quantile(errors[percent], q)));
    }
    bench::print_row(row, 12);
  }
  // Runtime check: the largest training size, serial vs parallel. The
  // per-locality SVM fan-out (waldo::runtime) must keep the confusion
  // matrix bit-identical while cutting wall-clock. Each repetition is
  // timed alone and serial and parallel ones alternate, so that a slow
  // stretch of a shared host lands on both; the speed-up is the ratio of
  // the two medians.
  bench::print_title("runtime — full training set, serial vs parallel");
  constexpr int kReps = 1000;
  const auto timed = [&campaign](unsigned threads, ml::ConfusionMatrix& cm) {
    const auto start = std::chrono::steady_clock::now();
    cm = eval_fraction(campaign, bench::SensorKind::kUsrpB200, 30, "svm", 3,
                       1.0, 7, threads);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  ml::ConfusionMatrix serial_cm, parallel_cm;
  std::vector<double> serial_s, parallel_s;
  for (int rep = 0; rep < kReps; ++rep) {
    serial_s.push_back(timed(1, serial_cm));
    parallel_s.push_back(timed(0, parallel_cm));
  }
  const double serial_median = ml::quantile(serial_s, 0.5);
  const double parallel_median = ml::quantile(parallel_s, 0.5);
  const bool identical = serial_cm.true_safe == parallel_cm.true_safe &&
                         serial_cm.false_safe == parallel_cm.false_safe &&
                         serial_cm.true_not_safe == parallel_cm.true_not_safe &&
                         serial_cm.false_not_safe == parallel_cm.false_not_safe;
  bench::print_row({"threads", "ms (median)", "error", "identical"}, 12);
  bench::print_row({"1", bench::fmt(1e3 * serial_median, 2),
                    bench::fmt(serial_cm.error_rate()), "-"},
                   12);
  bench::print_row({std::to_string(runtime::hardware_threads()),
                    bench::fmt(1e3 * parallel_median, 2),
                    bench::fmt(parallel_cm.error_rate()),
                    identical ? "yes" : "NO"},
                   12);
  std::printf("speedup: %.2fx, median of %d alternated repetitions each\n",
              serial_median / parallel_median, kReps);
  if (runtime::hardware_threads() == 1) {
    std::printf("(host exposes one hardware thread: the parallel path "
                "degrades to the serial loop,\nso the speedup above is "
                "measurement noise — only the 'identical' column is "
                "meaningful)\n");
  }

  std::printf(
      "\nPaper shape: more training data consistently improves accuracy;"
      " the error CDF\nshifts left as the training share grows — continuous"
      " crowdsourced updates pay off.\n");
  return 0;
}
