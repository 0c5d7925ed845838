#include "waldo/core/model.hpp"

#include <stdexcept>
#include <utility>

#include "waldo/codec/codec.hpp"
#include "waldo/core/features.hpp"
#include "waldo/ml/decision_tree.hpp"
#include "waldo/ml/kmeans.hpp"
#include "waldo/ml/logistic_regression.hpp"
#include "waldo/ml/knn.hpp"
#include "waldo/ml/naive_bayes.hpp"
#include "waldo/ml/svm.hpp"

namespace waldo::core {

std::unique_ptr<ml::Classifier> make_classifier(const std::string& kind) {
  if (kind == "svm") return std::make_unique<ml::Svm>();
  if (kind == "naive_bayes") return std::make_unique<ml::GaussianNaiveBayes>();
  if (kind == "decision_tree") return std::make_unique<ml::DecisionTree>();
  if (kind == "knn") return std::make_unique<ml::KnnClassifier>();
  if (kind == "logistic_regression") {
    return std::make_unique<ml::LogisticRegression>();
  }
  throw std::invalid_argument("unknown classifier kind: " + kind);
}

WhiteSpaceModel::WhiteSpaceModel(int channel, int num_features,
                                 std::string classifier_kind,
                                 ml::Matrix centroids,
                                 std::vector<Locality> localities)
    : channel_(channel),
      num_features_(num_features),
      classifier_kind_(std::move(classifier_kind)),
      centroids_(std::move(centroids)),
      localities_(std::move(localities)) {
  if (centroids_.rows() != localities_.size()) {
    throw std::invalid_argument("centroid / locality count mismatch");
  }
  if (centroids_.cols() != 2) {
    throw std::invalid_argument("centroids must be 2-D locations");
  }
}

std::size_t WhiteSpaceModel::num_constant_localities() const noexcept {
  std::size_t n = 0;
  for (const Locality& l : localities_) n += l.constant ? 1 : 0;
  return n;
}

std::optional<int> WhiteSpaceModel::constant_label() const {
  if (localities_.empty()) return std::nullopt;
  const Locality& first = localities_.front();
  if (!first.constant) return std::nullopt;
  for (const Locality& l : localities_) {
    if (!l.constant || l.constant_label != first.constant_label) {
      return std::nullopt;
    }
  }
  return first.constant_label;
}

std::size_t WhiteSpaceModel::locality_of(const geo::EnuPoint& p) const {
  if (centroids_.rows() == 0) throw std::logic_error("model has no localities");
  const double loc[2] = {p.east_m, p.north_m};
  return ml::nearest_centroid(centroids_, loc);
}

int WhiteSpaceModel::predict(std::span<const double> feature_row) const {
  if (feature_row.size() != feature_columns(num_features_)) {
    throw std::invalid_argument("feature row width mismatch");
  }
  const std::size_t c =
      locality_of(geo::EnuPoint{feature_row[0], feature_row[1]});
  const Locality& l = localities_[c];
  if (l.constant) return l.constant_label;
  return l.classifier->predict(feature_row);
}

void WhiteSpaceModel::save(codec::Writer& out) const {
  out.i64(channel_);
  out.i64(num_features_);
  out.str(classifier_kind_);
  out.u64(localities_.size());
  for (std::size_t c = 0; c < centroids_.rows(); ++c) {
    out.f64(centroids_(c, 0));
    out.f64(centroids_(c, 1));
  }
  for (const Locality& l : localities_) {
    if (l.constant) {
      out.u8(0);
      out.i64(l.constant_label);
    } else {
      out.u8(1);
      l.classifier->save(out);
    }
  }
}

void WhiteSpaceModel::load(codec::Reader& in) {
  channel_ = static_cast<int>(in.i64());
  num_features_ = static_cast<int>(in.i64());
  classifier_kind_ = in.str();
  // Validates the kind up front so a corrupt string fails here, not
  // halfway through a locality.
  (void)make_classifier(classifier_kind_);
  // Each locality contributes a 16-byte centroid plus at least a tag byte.
  const std::size_t count = in.count(17);
  centroids_ = ml::Matrix(count, 2);
  for (std::size_t c = 0; c < count; ++c) {
    centroids_(c, 0) = in.f64();
    centroids_(c, 1) = in.f64();
  }
  localities_.clear();
  localities_.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    Locality l;
    const std::uint8_t tag = in.u8();
    if (tag == 0) {
      l.constant = true;
      l.constant_label = static_cast<int>(in.i64());
    } else if (tag == 1) {
      l.classifier = make_classifier(classifier_kind_);
      l.classifier->load(in);
    } else {
      throw codec::Error("bad locality tag");
    }
    localities_.push_back(std::move(l));
  }
  in.expect_done();
}

std::string WhiteSpaceModel::serialize() const {
  codec::Writer w;
  save(w);
  return std::move(w).finish();
}

WhiteSpaceModel WhiteSpaceModel::deserialize(const std::string& bytes) {
  WhiteSpaceModel m;
  codec::Reader r(bytes);
  m.load(r);
  return m;
}

std::size_t WhiteSpaceModel::descriptor_size_bytes() const {
  return serialize().size();
}

}  // namespace waldo::core
