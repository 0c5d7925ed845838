// Binary-classifier interface shared by every model Waldo can ship to a
// white-space device. Models must be (de)serializable to a compact
// descriptor — descriptor size is itself an evaluation metric of the paper
// (Section 5: ~4 kB Naive Bayes vs ~40 kB SVM). The one wire form is the
// compact binary waldo::codec format (v1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "waldo/ml/matrix.hpp"

namespace waldo::codec {
class Reader;
class Writer;
}  // namespace waldo::codec

namespace waldo::ml {

/// One-byte family tag opening every binary classifier payload; a load
/// that sees the wrong tag rejects the descriptor immediately instead of
/// misinterpreting another family's doubles. Values are wire format —
/// append only, never renumber (docs/WIRE_FORMAT.md).
enum class WireFamily : std::uint8_t {
  kStandardizer = 0,
  kSvm = 1,
  kNaiveBayes = 2,
  kDecisionTree = 3,
  kKnn = 4,
  kLogisticRegression = 5,
};

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains on feature rows `x` with labels `y` (kSafe / kNotSafe).
  virtual void fit(const Matrix& x, std::span<const int> y) = 0;

  /// Predicted label for one feature vector. Requires a trained model.
  [[nodiscard]] virtual int predict(std::span<const double> x) const = 0;

  /// Predictions for every row of `x`.
  [[nodiscard]] std::vector<int> predict_all(const Matrix& x) const;

  /// Short model-family identifier ("svm", "naive_bayes", ...).
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Writes / reads the binary (v1) payload: a WireFamily tag byte
  /// followed by the family fields. Raw IEEE-754 doubles — round trips
  /// are bit-exact. The descriptor is what a WSD downloads from the
  /// spectrum database.
  virtual void save(codec::Writer& out) const = 0;
  virtual void load(codec::Reader& in) = 0;

  /// Binary (v1) descriptor size in bytes, container overhead included
  /// (serialises to a string internally).
  [[nodiscard]] std::size_t descriptor_size_bytes() const;
};

/// A callable producing fresh, untrained classifiers — what cross
/// validation and the per-cluster model constructor consume.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

}  // namespace waldo::ml
