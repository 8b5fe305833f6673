#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "obs/obs.h"
#include "obs/registry.h"

namespace caqp {

namespace {

bool IsRate(double p) { return std::isfinite(p) && p >= 0.0 && p <= 1.0; }

/// Threshold a 53-bit uniform draw must fall below to fire with
/// probability p (exactly never at 0, always at 1).
uint64_t DrawThreshold(double p) {
  return static_cast<uint64_t>(std::ceil(std::ldexp(p, 53)));
}

Status ParseProbability(const std::string& key, const std::string& text,
                        double* out) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return Status::InvalidArgument("fault profile: bad number for '" + key +
                                   "': " + text);
  }
  if (!IsRate(v)) {
    return Status::InvalidArgument("fault profile: '" + key +
                                   "' must be in [0,1], got " + text);
  }
  *out = v;
  return Status::OK();
}

/// ParseDecimal with a descriptive error for `what` (seed, attribute).
Status ParseUnsigned(const std::string& what, const std::string& text,
                     uint64_t max, uint64_t* out) {
  if (!ParseDecimal(text, max, out)) {
    return Status::InvalidArgument("fault profile: bad " + what + " '" +
                                   text + "' (decimal digits, at most " +
                                   std::to_string(max) + ")");
  }
  return Status::OK();
}

}  // namespace

bool ParseDecimal(const std::string& text, uint64_t max, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (v > (max - digit) / 10) return false;  // v * 10 + digit > max
    v = v * 10 + digit;
  }
  *out = v;
  return true;
}

double FaultSpec::TransientFor(AttrId attr) const {
  for (const auto& [a, p] : transient_overrides) {
    if (a == attr) return p;
  }
  return transient;
}

Result<FaultSpec> FaultSpec::Parse(const std::string& text) {
  FaultSpec spec;
  if (!text.empty() && text.back() == ',') {
    // getline never yields the empty segment after a trailing ',', so the
    // dangling comma must be rejected up front or it would pass silently.
    return Status::InvalidArgument(
        "fault profile: trailing ',' (dangling empty item)");
  }
  std::vector<std::string> seen_keys;  // duplicate detection, incl. @attr
  const auto claim_key = [&seen_keys](const std::string& key) -> Status {
    for (const std::string& s : seen_keys) {
      if (s == key) {
        return Status::InvalidArgument(
            "fault profile: duplicate key '" + key +
            "' (each key may appear once; last-write-wins is not supported)");
      }
    }
    seen_keys.push_back(key);
    return Status::OK();
  };
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) {
      return Status::InvalidArgument(
          "fault profile: empty item (stray ',')");
    }
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault profile: expected key=value, got '" +
                                     item + "'");
    }
    const std::string key = item.substr(0, eq);
    const std::string val = item.substr(eq + 1);
    CAQP_RETURN_IF_ERROR(claim_key(key));
    if (key == "transient") {
      CAQP_RETURN_IF_ERROR(ParseProbability(key, val, &spec.transient));
    } else if (key == "stuck") {
      CAQP_RETURN_IF_ERROR(ParseProbability(key, val, &spec.stuck));
    } else if (key == "spike") {
      CAQP_RETURN_IF_ERROR(ParseProbability(key, val, &spec.spike));
    } else if (key == "spike_mult") {
      char* end = nullptr;
      const double v = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !std::isfinite(v) ||
          v <= 0.0) {
        return Status::InvalidArgument(
            "fault profile: spike_mult must be a finite positive number, "
            "got '" + val + "'");
      }
      spec.spike_multiplier = v;
    } else if (key == "seed") {
      CAQP_RETURN_IF_ERROR(
          ParseUnsigned("seed", val, UINT64_MAX, &spec.seed));
    } else if (key.rfind("transient@", 0) == 0) {
      const std::string attr_text = key.substr(10);
      uint64_t attr = 0;
      CAQP_RETURN_IF_ERROR(ParseUnsigned("attribute", attr_text,
                                         kInvalidAttr - 1, &attr));
      double p = 0.0;
      CAQP_RETURN_IF_ERROR(ParseProbability(key, val, &p));
      for (const auto& [existing, prob] : spec.transient_overrides) {
        (void)prob;
        // Catches spellings claim_key can't ("transient@3" vs
        // "transient@03"): one rate per attribute, no silent override.
        if (existing == static_cast<AttrId>(attr)) {
          return Status::InvalidArgument(
              "fault profile: duplicate transient override for attribute " +
              attr_text);
        }
      }
      spec.transient_overrides.emplace_back(static_cast<AttrId>(attr), p);
    } else {
      return Status::InvalidArgument("fault profile: unknown key '" + key +
                                     "'");
    }
  }
  return spec;
}

std::string FaultSpec::ToString() const {
  std::ostringstream out;
  out << "transient=" << transient << ",stuck=" << stuck << ",spike=" << spike
      << ",spike_mult=" << spike_multiplier << ",seed=" << seed;
  for (const auto& [attr, p] : transient_overrides) {
    out << ",transient@" << attr << "=" << p;
  }
  return out.str();
}

FaultInjector::FaultInjector(const FaultSpec& spec) : spec_(spec) {
  CAQP_CHECK(IsRate(spec.transient));
  CAQP_CHECK(IsRate(spec.stuck));
  CAQP_CHECK(IsRate(spec.spike));
  CAQP_CHECK(std::isfinite(spec.spike_multiplier) &&
             spec.spike_multiplier > 0.0);
  for (const auto& [attr, p] : spec.transient_overrides) {
    (void)attr;
    CAQP_CHECK(IsRate(p));
  }
  const uint64_t stuck_below = DrawThreshold(spec.stuck);
  spike_below_ = DrawThreshold(spec.spike);
  for (size_t a = 0; a < kMaxAttributes; ++a) {
    const AttrId attr = static_cast<AttrId>(a);
    // Mixing decorrelates adjacent attributes (and adjacent spec seeds).
    attr_key_[a] = Mix64(spec.seed + kGoldenGamma * (a + 1));
    key0_[a][kFailDraw] = AttemptKey(attr_key_[a], 0, kFailDraw);
    key0_[a][kSpikeDraw] = AttemptKey(attr_key_[a], 0, kSpikeDraw);
    fail_below_[a] = DrawThreshold(spec.TransientFor(attr));
    // The stuck draw hashes the key itself, which no attempt key does.
    if ((Mix64(attr_key_[a]) >> 11) < stuck_below) stuck_ |= uint64_t{1} << a;
  }
}

FaultRealization::FaultRealization(const FaultInjector& injector,
                                   std::span<const RowId> rows,
                                   size_t num_attributes,
                                   std::span<const RowId> keys)
    : injector_(injector),
      rows_(rows),
      keys_(keys.empty() ? rows : keys),
      num_attributes_(num_attributes),
      words_per_attr_((rows.size() + 63) / 64),
      words_(num_attributes * words_per_attr_, 0) {
  CAQP_CHECK(num_attributes <= kMaxAttributes);
  CAQP_CHECK(keys_.size() == rows_.size());
  for (size_t a = 0; a < num_attributes; ++a) {
    const FaultInjector::CleanTest test =
        injector.CleanTestFor(static_cast<AttrId>(a));
    uint64_t* words = words_.data() + a * words_per_attr_;
    for (size_t w = 0; w < words_per_attr_; ++w) {
      const size_t end = std::min(rows.size(), (w + 1) * 64);
      uint64_t bits = 0;
      for (size_t i = w * 64; i < end; ++i) {
        bits |= static_cast<uint64_t>(test.Clean(keys_[i])) << (i & 63);
      }
      words[w] = bits;
    }
  }
}

AcquiredValue FaultyAcquisitionSource::Acquire(AttrId attr) {
  CAQP_CHECK(attr < kMaxAttributes);
  const FaultInjector::Outcome o = injector_.At(row_, attr, attempts_[attr]++);
  if (o.fail) {
    ++injected_;
    CAQP_OBS_COUNTER_INC("fault.injected");
    return AcquiredValue::Failure(o.permanent);
  }
  AcquiredValue v = base_.Acquire(attr);
  v.cost_multiplier *= o.cost_multiplier;
  return v;
}

}  // namespace caqp
