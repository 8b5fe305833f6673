#include "data/garden_gen.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/rng.h"
#include "core/discretizer.h"

namespace caqp {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr uint32_t kTempBins = 12;
constexpr uint32_t kHumidityBins = 12;
constexpr uint32_t kVoltageBins = 8;
constexpr double kExpensiveCost = 100.0;  ///< temperature, humidity
constexpr double kCheapCost = 1.0;        ///< hour, voltage

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

Dataset GenerateGardenData(const GardenDataOptions& options) {
  CAQP_CHECK_GE(options.num_motes, 1u);
  Schema schema;
  schema.AddAttribute("hour", 24, kCheapCost);
  for (size_t m = 0; m < options.num_motes; ++m) {
    const std::string suffix = std::to_string(m);
    schema.AddAttribute("temp_" + suffix, kTempBins, kExpensiveCost);
    schema.AddAttribute("volt_" + suffix, kVoltageBins, kCheapCost);
    schema.AddAttribute("humid_" + suffix, kHumidityBins, kExpensiveCost);
  }

  const UniformDiscretizer temp_disc(5.0, 30.0, kTempBins);
  const UniformDiscretizer humid_disc(30.0, 100.0, kHumidityBins);
  const UniformDiscretizer volt_disc(2.4, 3.2, kVoltageBins);

  Rng rng(options.seed);

  // Per-mote fixed effects: canopy shading and battery wear.
  std::vector<double> canopy(options.num_motes);
  std::vector<double> drain(options.num_motes);
  std::vector<double> humid_offset(options.num_motes);
  for (size_t m = 0; m < options.num_motes; ++m) {
    canopy[m] = rng.Gaussian(0.0, 0.8);
    drain[m] = 0.3 + 0.15 * rng.Uniform();
    humid_offset[m] = rng.Gaussian(0.0, 2.0);
  }

  Dataset data(schema);
  Tuple t(schema.num_attributes());
  double weather_walk = 0.0;  // slow synoptic-scale temperature drift
  for (size_t e = 0; e < options.epochs; ++e) {
    const double minutes = static_cast<double>(e) * 5.0;
    const double hour_f = std::fmod(minutes / 60.0, 24.0);

    weather_walk = Clamp(weather_walk + rng.Gaussian(0, 0.05), -2.5, 2.5);
    const double ambient_temp =
        16.0 + 6.5 * std::sin(kPi * (hour_f - 7.0) / 12.0) + weather_walk;
    const double ambient_humid =
        Clamp(72.0 - 2.2 * (ambient_temp - 16.0) + rng.Gaussian(0, 1.0), 30.0,
              100.0);

    t[0] = static_cast<Value>(static_cast<uint32_t>(hour_f) % 24);
    const double frac = static_cast<double>(e) / options.epochs;
    for (size_t m = 0; m < options.num_motes; ++m) {
      const double temp =
          Clamp(ambient_temp + canopy[m] + rng.Gaussian(0, 0.5), 5.0, 30.0);
      // Battery voltage sags under heat and drains over time: a cheap proxy
      // for the expensive temperature attribute.
      const double volt = Clamp(3.15 - drain[m] * frac +
                                    0.012 * (temp - 16.0) +
                                    rng.Gaussian(0, 0.012),
                                2.4, 3.2);
      const double humid = Clamp(
          ambient_humid + humid_offset[m] + rng.Gaussian(0, 1.8), 30.0, 100.0);
      t[1 + 3 * m] = temp_disc.ToBin(temp);
      t[2 + 3 * m] = volt_disc.ToBin(volt);
      t[3 + 3 * m] = humid_disc.ToBin(humid);
    }
    data.Append(t);
  }
  return data;
}

GardenAttrs ResolveGardenAttrs(const Schema& schema) {
  GardenAttrs a;
  a.hour = schema.FindAttribute("hour");
  CAQP_CHECK(a.hour != kInvalidAttr);
  for (size_t m = 0;; ++m) {
    const std::string suffix = std::to_string(m);
    const AttrId temp = schema.FindAttribute("temp_" + suffix);
    if (temp == kInvalidAttr) break;
    a.temperature.push_back(temp);
    a.voltage.push_back(schema.FindAttribute("volt_" + suffix));
    a.humidity.push_back(schema.FindAttribute("humid_" + suffix));
    CAQP_CHECK(a.voltage.back() != kInvalidAttr);
    CAQP_CHECK(a.humidity.back() != kInvalidAttr);
  }
  CAQP_CHECK(!a.temperature.empty());
  return a;
}

}  // namespace caqp
