#include "data/lab_gen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "core/discretizer.h"

namespace caqp {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kExpensiveCost = 100.0;  ///< light, temperature, humidity
constexpr double kCheapCost = 1.0;        ///< nodeid, hour, voltage

double Clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

}  // namespace

Dataset GenerateLabData(const LabDataOptions& options) {
  CAQP_CHECK_GE(options.num_motes, 2u);
  Schema schema;
  schema.AddAttribute("nodeid", static_cast<uint32_t>(options.num_motes),
                      kCheapCost);
  schema.AddAttribute("hour", 24, kCheapCost);
  schema.AddAttribute("voltage", options.voltage_bins, kCheapCost);
  schema.AddAttribute("light", options.light_bins, kExpensiveCost);
  schema.AddAttribute("temperature", options.temp_bins, kExpensiveCost);
  schema.AddAttribute("humidity", options.humidity_bins, kExpensiveCost);

  const UniformDiscretizer light_disc(0.0, 1200.0, options.light_bins);
  const UniformDiscretizer temp_disc(10.0, 35.0, options.temp_bins);
  const UniformDiscretizer humid_disc(20.0, 80.0, options.humidity_bins);
  const UniformDiscretizer volt_disc(2.2, 3.1, options.voltage_bins);

  Rng rng(options.seed);
  Dataset data(schema);

  // The back zone of the lab (high node ids) hosts late-night work sessions.
  const size_t back_zone_start = (options.num_motes * 3) / 5;

  // Per-mote fixed effects.
  std::vector<double> window_factor(options.num_motes);
  std::vector<double> volt_offset(options.num_motes);
  for (size_t m = 0; m < options.num_motes; ++m) {
    window_factor[m] = 0.6 + 0.4 * rng.Uniform();  // daylight exposure
    volt_offset[m] = rng.Gaussian(0.0, 0.03);
  }
  // Whether the back zone is occupied late tonight, re-drawn daily.
  bool night_session = false;
  size_t last_day = static_cast<size_t>(-1);

  Tuple t(schema.num_attributes());
  for (size_t row = 0; row < options.readings; ++row) {
    const size_t mote = row % options.num_motes;
    const size_t epoch = row / options.num_motes;
    const double minutes = static_cast<double>(epoch) * 2.0;
    const double hour_f = std::fmod(minutes / 60.0, 24.0);
    const size_t day = static_cast<size_t>(minutes / (60.0 * 24.0));
    const auto hour = static_cast<uint32_t>(hour_f);

    if (day != last_day) {
      last_day = day;
      night_session = rng.Bernoulli(0.35);
    }

    // --- light ---
    const double daylight =
        std::max(0.0, std::sin(kPi * (hour_f - 6.0) / 12.0)) * 650.0;
    const bool work_hours = hour_f >= 9.0 && hour_f < 18.0;
    const bool late_hours = hour_f >= 19.0 || hour_f < 1.0;
    double lamps = 0.0;
    if (work_hours && rng.Bernoulli(0.92)) lamps = 420.0;
    const bool back_zone = mote >= back_zone_start;
    if (back_zone && late_hours && night_session) lamps = 420.0;
    const double light =
        Clamp(daylight * window_factor[mote] + lamps + rng.Gaussian(0, 35.0),
              0.0, 1200.0);

    // --- temperature: diurnal + HVAC + light coupling ---
    const double diurnal = 5.5 * std::sin(kPi * (hour_f - 8.0) / 12.0);
    const double hvac = work_hours ? 1.5 : -1.5;  // heated/cooled toward day
    const double temp = Clamp(
        21.0 + diurnal + hvac + 0.004 * light + rng.Gaussian(0, 0.9), 10.0,
        35.0);

    // --- humidity: HVAC dries the air; nights are humid ---
    const bool night = hour_f < 6.0 || hour_f >= 20.0;
    const double humidity =
        Clamp(48.0 + (night ? 13.0 : 0.0) - (work_hours ? 7.0 : 0.0) +
                  rng.Gaussian(0, 2.5),
              20.0, 80.0);

    // --- voltage: slow decay ---
    const double frac = static_cast<double>(row) / options.readings;
    const double volt = Clamp(
        3.02 - 0.45 * frac + volt_offset[mote] + rng.Gaussian(0, 0.015), 2.2,
        3.1);

    t[0] = static_cast<Value>(mote);
    t[1] = static_cast<Value>(hour % 24);
    t[2] = volt_disc.ToBin(volt);
    t[3] = light_disc.ToBin(light);
    t[4] = temp_disc.ToBin(temp);
    t[5] = humid_disc.ToBin(humidity);
    data.Append(t);
  }
  return data;
}

LabAttrs ResolveLabAttrs(const Schema& schema) {
  LabAttrs a;
  a.nodeid = schema.FindAttribute("nodeid");
  a.hour = schema.FindAttribute("hour");
  a.voltage = schema.FindAttribute("voltage");
  a.light = schema.FindAttribute("light");
  a.temperature = schema.FindAttribute("temperature");
  a.humidity = schema.FindAttribute("humidity");
  CAQP_CHECK(a.nodeid != kInvalidAttr && a.hour != kInvalidAttr &&
             a.voltage != kInvalidAttr && a.light != kInvalidAttr &&
             a.temperature != kInvalidAttr && a.humidity != kInvalidAttr);
  return a;
}

}  // namespace caqp
