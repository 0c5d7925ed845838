// Median path-loss models: loss between isotropic antennas in positive dB,
// at a distance clamped to the model's validity range (callers may pass any
// positive distance). The environment's ground truth uses Hata urban (plus
// shadowing and obstructions); the conventional-database baseline uses the
// smooth FCC-curve surrogate, mirroring the paper's contrast between
// generic propagation models and reality.
#pragma once

namespace waldo::rf {

/// Hata's empirical urban model (valid 150-1500 MHz; we clamp frequency at
/// the upper edge for high UHF channels, a standard engineering extension).
/// The distance-independent part of the loss (frequency, tower-height, and
/// antenna-correction terms) is hoisted into the constructor — evaluated
/// with the same expression order as the former per-call formula, so
/// path_loss_db is bit-identical — leaving one log10 per query.
class HataUrbanModel {
 public:
  HataUrbanModel(double frequency_hz, double tx_height_m,
                 double rx_height_m) noexcept;
  [[nodiscard]] double path_loss_db(double distance_m) const;

  /// Mobile-antenna correction term a(h_m) as used in the paper:
  /// 3.2 (log10(11.5 h_m))^2 - 4.97. For the paper's 8 m height deficit
  /// this yields the +7.5 dB antenna correction factor of Section 2.1.
  [[nodiscard]] static double antenna_correction_db(double rx_height_m);

 private:
  double freq_mhz_;
  double tx_height_m_;
  double rx_height_m_;
  double fixed_db_ = 0.0;  ///< 69.55 + 26.16 lf - 13.82 lhb - a(h_m)
  double slope_ = 0.0;     ///< 44.9 - 6.55 lhb (dB per decade of distance)
};

/// Surrogate for the FCC R-6602 propagation curves that certified spectrum
/// databases use. The curves were fit to open-terrain broadcast data, so in
/// cluttered metro terrain they under-predict loss by ~10 dB — the root of
/// the database family's overprotection (it draws contours well beyond
/// where the signal is actually decodable, and sees no shadowing pockets
/// at all). Modelled as Hata at the regulatory 10 m receiver height minus a
/// clutter under-prediction offset.
class FccCurvesModel {
 public:
  explicit FccCurvesModel(double frequency_hz, double tx_height_m,
                          double clutter_underprediction_db = 0.0) noexcept;
  [[nodiscard]] double path_loss_db(double distance_m) const;

 private:
  HataUrbanModel hata_;
  double clutter_underprediction_db_;
};

}  // namespace waldo::rf
