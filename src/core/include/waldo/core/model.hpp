// The White Space Detection Model a WSD downloads: locality centroids plus
// one compact classifier per locality. Clusters whose training data was
// single-class collapse to a constant label ("binary clusters" in the
// paper), which costs nothing to ship or evaluate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "waldo/geo/latlon.hpp"
#include "waldo/ml/classifier.hpp"
#include "waldo/ml/matrix.hpp"

namespace waldo::core {

/// Creates an untrained classifier by family name ("svm", "naive_bayes",
/// "decision_tree", "knn", "logistic_regression"). Throws on unknown names.
[[nodiscard]] std::unique_ptr<ml::Classifier> make_classifier(
    const std::string& kind);

class WhiteSpaceModel {
 public:
  struct Locality {
    bool constant = false;
    int constant_label = 0;
    std::unique_ptr<ml::Classifier> classifier;  ///< null when constant
  };

  WhiteSpaceModel() = default;
  WhiteSpaceModel(int channel, int num_features, std::string classifier_kind,
                  ml::Matrix centroids, std::vector<Locality> localities);

  [[nodiscard]] int channel() const noexcept { return channel_; }
  [[nodiscard]] int num_features() const noexcept { return num_features_; }
  [[nodiscard]] const std::string& classifier_kind() const noexcept {
    return classifier_kind_;
  }
  [[nodiscard]] std::size_t num_localities() const noexcept {
    return localities_.size();
  }
  [[nodiscard]] std::size_t num_constant_localities() const noexcept;
  [[nodiscard]] const ml::Matrix& centroids() const noexcept {
    return centroids_;
  }

  /// Locality index owning a position.
  [[nodiscard]] std::size_t locality_of(const geo::EnuPoint& p) const;

  /// If every locality is a constant with the same label, that label —
  /// the channel's state is area-wide and devices may cache the decision
  /// without sensing (Section 5: "clearly vacant channels ... can be
  /// cached and not scanned"). Empty otherwise.
  [[nodiscard]] std::optional<int> constant_label() const;

  /// Classifies a full feature row (first two columns are the location).
  [[nodiscard]] int predict(std::span<const double> feature_row) const;

  /// Descriptor round-trip. The descriptor is what travels from the
  /// spectrum database to the device: the compact binary waldo::codec
  /// container (v1), whose round trips are bit-exact. `deserialize`
  /// throws `codec::Error` on any other bytes.
  void save(codec::Writer& out) const;
  void load(codec::Reader& in);
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static WhiteSpaceModel deserialize(const std::string& bytes);
  /// Descriptor size in bytes.
  [[nodiscard]] std::size_t descriptor_size_bytes() const;

 private:
  int channel_ = 0;
  int num_features_ = 1;
  std::string classifier_kind_;
  ml::Matrix centroids_;  ///< k x 2, location space
  std::vector<Locality> localities_;
};

}  // namespace waldo::core
