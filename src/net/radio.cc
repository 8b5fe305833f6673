#include "net/radio.h"

#include "obs/obs.h"
#include "obs/registry.h"

namespace caqp {

Radio::Delivery Radio::Transmit(const std::vector<uint8_t>& bytes,
                                EnergyMeter& sender, EnergyMeter& receiver) {
  Delivery out;
  CAQP_OBS_COUNTER_INC("net.radio.transmissions");
  const double cost = options_.cost_per_byte * static_cast<double>(bytes.size());
  // Sender pays iff a transmission is attempted; an unaffordable send never
  // keys the radio.
  if (!sender.Consume(cost)) {
    ++messages_dropped_;
    CAQP_OBS_COUNTER_INC("net.radio.dropped_energy");
    return out;
  }
  bytes_sent_ += bytes.size();
  CAQP_OBS_COUNTER_ADD("net.radio.bytes_sent", bytes.size());
  // Gilbert-Elliott state transition, then the loss roll at the current
  // state's rate. With good_to_bad = 0 both Bernoulli calls below early-out
  // without consuming the engine, so pre-burst seeded streams are unchanged.
  if (in_bad_state_) {
    if (rng_.Bernoulli(options_.bad_to_good)) in_bad_state_ = false;
  } else {
    if (rng_.Bernoulli(options_.good_to_bad)) in_bad_state_ = true;
  }
  const double loss = in_bad_state_ ? options_.burst_drop_probability
                                    : options_.drop_probability;
  if (rng_.Bernoulli(loss)) {
    ++messages_dropped_;
    CAQP_OBS_COUNTER_INC("net.radio.dropped_loss");
    if (in_bad_state_) {
      ++burst_drops_;
      CAQP_OBS_COUNTER_INC("net.radio.dropped_burst");
    }
    CAQP_OBS_HIST_RECORD("net.radio.message_energy", cost);
    return out;
  }
  // Receiver pays iff the message reaches it; a browned-out receiver cannot
  // power its radio, so delivery fails without charging it.
  if (!receiver.Consume(cost)) {
    ++messages_dropped_;
    CAQP_OBS_COUNTER_INC("net.radio.dropped_energy");
    CAQP_OBS_HIST_RECORD("net.radio.message_energy", cost);
    return out;
  }
  CAQP_OBS_HIST_RECORD("net.radio.message_energy", 2.0 * cost);
  out.payload = bytes;
  if (options_.corruption_probability > 0) {
    for (uint8_t& b : out.payload) {
      if (rng_.Bernoulli(options_.corruption_probability)) {
        b ^= static_cast<uint8_t>(1u << rng_.UniformInt(0, 7));
      }
    }
  }
  out.delivered = true;
  return out;
}

}  // namespace caqp
