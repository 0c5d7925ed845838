// Energy ablation (Section 5, citing the "will DSA drain my battery?"
// study): daily battery cost of three access strategies on the same
// device. Waldo pays for the SDR during scans and one model download per
// area; the conventional database pays a cellular round trip per re-check;
// the paper's cited study found the two "sometimes comparable" — this
// bench shows where the crossover sits.
#include <cstdio>

#include "common.hpp"
#include "waldo/device/energy.hpp"
#include "waldo/device/phone.hpp"
#include "waldo/service/service.hpp"

using namespace waldo;

int main() {
  std::printf("Energy ablation — daily battery cost of channel checking\n");
  bench::Campaign campaign(2000);

  core::ModelConstructorConfig mc;
  mc.classifier = "naive_bayes";
  mc.num_features = 2;
  mc.num_localities = 3;
  service::SpectrumService db(mc);
  const std::vector<int> channels{15, 21, 46, 47};
  std::size_t model_bytes = 0;
  for (const int ch : channels) {
    db.ingest_campaign(campaign.dataset(bench::SensorKind::kUsrpB200, ch));
    model_bytes += db.download_model(ch).size();
  }

  device::PhoneConfig cfg;
  sensors::Sensor sensor(device::phone_rtl_sdr_spec(), 95);
  sensor.calibrate();
  device::PhoneRuntime phone(cfg, std::move(sensor));
  phone.ensure_models(db, channels);
  const device::ScanReport cycle = phone.scan_cycle(
      campaign.environment(), channels, geo::EnuPoint{8000.0, 8000.0});

  const device::EnergyModel energy;
  constexpr std::size_t kChecksPerDay = 24 * 60;  // FCC: re-check per minute
  constexpr std::size_t kQueryBytes = 2048;

  const double waldo_j = device::waldo_daily_energy_j(
      model_bytes, cycle, kChecksPerDay, energy);
  const double db_j =
      device::database_daily_energy_j(kQueryBytes, kChecksPerDay, energy);

  bench::print_title("daily energy (4 channels, one check per minute)");
  bench::print_row({"strategy", "J/day", "mAh @3.85V", "notes"}, 22);
  const auto mah = [](double joules) {
    return joules / 3.85 / 3.6;  // J -> mAh at a phone's 3.85 V
  };
  bench::print_row({"Waldo (local)", bench::fmt(waldo_j, 0),
                    bench::fmt(mah(waldo_j), 0),
                    "1 download + SDR scans"},
                   22);
  bench::print_row({"database queries", bench::fmt(db_j, 0),
                    bench::fmt(mah(db_j), 0), "LTE round trip each"},
                   22);

  // Crossover: how often must the device move (forcing fresh queries) for
  // the database strategy to cost more than Waldo?
  const double scan_j = device::scan_energy_j(cycle, energy);
  const double query_j = device::transfer_energy_j(kQueryBytes, energy);
  std::printf("\nper-event cost: one 4-channel scan %.2f J vs one query "
              "round trip %.2f J\n",
              scan_j, query_j);
  std::printf("(cellular wakeups dominate: local sensing wins whenever the"
              " radio would\notherwise wake for the check — consistent with"
              " the cited study's 'sometimes\ncomparable' verdict, which"
              " assumed the radio was already awake.)\n");
  return 0;
}
